package explore

import "slices"

// The root ledger: settlement of frontier roots as one plain value,
// stepped under its owner's mutex by the work-stealing pool (steal.go),
// for its local workers and for the remote ones at its seat
// (remote.go). The pool keeps results and machinery; the ledger decides
// whether a result counts. Times are int64 instants of
// the owner's clock; a deadline of 0 never expires.
//
// An entry is a frontier root's own prefix or a prefix donated from
// another entry of the same root. It is queued, claimed by an owner
// under a generation until a deadline, released after a failed attempt,
// or done: resolved, or lost past the attempt budget. A root settles
// once, when its last entry is done; it fails if any entry was lost.
//
//   - A requeue starts a new generation, and a step by an attempt of
//     any other generation than the entry's current one is stale. A
//     delivery repeated under the resolving generation is a duplicate.
//   - A donation is logged on its donor entry before the new entries are
//     queued. A later attempt of the donor excises the logged prefixes
//     (Donated) and may not donate a proper ancestor of one, whose entry
//     would walk runs a queued entry already owns: that donation is a
//     duplicate. An entry's walk and its donations partition its subtree.

// Verdict is a ledger step's answer: accepted, or a duplicate or stale
// step that changed nothing.
type Verdict uint8

const (
	VerdictAccepted Verdict = iota
	VerdictDuplicate
	VerdictStale
)

// Claim is one claimed attempt of a ledger entry. Gen is the generation
// the attempt presents at every later step, Attempt its 1-based number,
// Donor the owner whose attempt donated the entry ("" for a root's own
// entry), and Logged the length of the entry's donation log.
type Claim struct {
	Entry, Root, Gen, Attempt int
	Prefix                    []Choice
	Owner, Donor              string
	Deadline                  int64
	Logged                    int
}

type entryState uint8

const (
	entryQueued entryState = iota
	entryClaimed
	entryReleased // a failed attempt's entry, waiting for Requeue
	entryResolved
	entryLost
)

type ledgerEntry struct {
	c     Claim // identity, and the latest claim
	state entryState
	log   [][]Choice // prefixes donated away from this entry
}

type ledgerRoot struct {
	entry, open int // the root's own entry; entries not yet done
	lost        *RootFailure
}

// Ledger is the settlement state of one census's frontier roots. It is
// not safe for concurrent use: its owner steps it under one mutex.
type Ledger struct {
	maxAttempts int
	entries     []ledgerEntry
	queue       []int // queued entries; Claim takes the newest
	roots       map[int]*ledgerRoot
	unsettled   int
	closed      bool
}

// NewLedger returns an empty ledger granting each entry maxAttempts
// attempts.
func NewLedger(maxAttempts int) *Ledger {
	return &Ledger{maxAttempts: maxAttempts, roots: make(map[int]*ledgerRoot)}
}

// Open queues frontier root's own entry, exploring prefix.
func (l *Ledger) Open(root int, prefix []Choice) {
	l.roots[root] = &ledgerRoot{entry: len(l.entries)}
	l.unsettled++
	l.add(root, prefix, "")
}

func (l *Ledger) add(root int, prefix []Choice, donor string) {
	e := len(l.entries)
	l.entries = append(l.entries, ledgerEntry{c: Claim{Entry: e, Root: root, Gen: 1, Prefix: prefix, Donor: donor}})
	l.roots[root].open++
	l.queue = append(l.queue, e)
}

// Entry is root's own entry; -1 for a root never opened.
func (l *Ledger) Entry(root int) int {
	if r := l.roots[root]; r != nil {
		return r.entry
	}
	return -1
}

// Claim hands the newest queued entry to owner until deadline. ok is
// false when nothing is queued or the ledger is closed.
func (l *Ledger) Claim(owner string, deadline int64) (c Claim, ev []Event, ok bool) {
	return l.claim(owner, deadline, func(*ledgerEntry) bool { return true })
}

// ClaimWhole is Claim restricted to the queued entries that are whole —
// a root's own entry with an empty donation log, whose attempt walks the
// root's entire subtree — when whole is set, and to the others when it
// is not.
func (l *Ledger) ClaimWhole(owner string, deadline int64, whole bool) (c Claim, ev []Event, ok bool) {
	return l.claim(owner, deadline, func(en *ledgerEntry) bool {
		return (en.c.Entry == l.roots[en.c.Root].entry && len(en.log) == 0) == whole
	})
}

func (l *Ledger) claim(owner string, deadline int64, fits func(*ledgerEntry) bool) (Claim, []Event, bool) {
	if l.closed {
		return Claim{}, nil, false
	}
	for k := len(l.queue) - 1; k >= 0; k-- {
		en := &l.entries[l.queue[k]]
		if !fits(en) {
			continue
		}
		l.queue = slices.Delete(l.queue, k, k+1)
		en.state = entryClaimed
		en.c.Attempt++
		en.c.Owner, en.c.Deadline, en.c.Logged = owner, deadline, len(en.log)
		return en.c, []Event{{Kind: EventClaim, Root: en.c.Root, Attempt: en.c.Attempt}}, true
	}
	return Claim{}, nil, false
}

// holds reports whether generation gen holds entry e's claim.
func (l *Ledger) holds(e, gen int) bool {
	return e >= 0 && e < len(l.entries) && l.entries[e].state == entryClaimed && l.entries[e].c.Gen == gen
}

// Beat moves a held claim's deadline. false means the claim is gone —
// superseded, done, or the ledger closed — and its attempt should stop.
func (l *Ledger) Beat(e, gen int, deadline int64) bool {
	if !l.holds(e, gen) || l.closed {
		return false
	}
	l.entries[e].c.Deadline = deadline
	return true
}

// Deliver resolves entry e with the result of an attempt at generation
// gen; the caller keeps the result only if the verdict is
// VerdictAccepted. gen must be the entry's current generation: the
// claim's, or a requeue's not claimed yet, which no attempt can hold.
func (l *Ledger) Deliver(e, gen int) (Verdict, []Event) { return l.end(e, gen, "", false) }

// Fail records that an attempt at generation gen of entry e failed,
// under Deliver's rule. Within the attempt budget the entry is released
// with an EventRetry, for the caller to Requeue; past it the entry is
// lost and its root fails.
func (l *Ledger) Fail(e, gen int, why string) (Verdict, []Event) { return l.end(e, gen, why, true) }

func (l *Ledger) end(e, gen int, why string, failed bool) (Verdict, []Event) {
	if e < 0 || e >= len(l.entries) || l.entries[e].c.Gen != gen {
		return VerdictStale, nil
	}
	en := &l.entries[e]
	switch en.state {
	case entryResolved:
		return VerdictDuplicate, nil
	case entryReleased, entryLost:
		return VerdictStale, nil
	case entryQueued:
		l.queue = slices.DeleteFunc(l.queue, func(q int) bool { return q == e })
	}
	if failed {
		return VerdictAccepted, l.fail(en, EventRetry, why)
	}
	en.state = entryResolved
	return VerdictAccepted, l.done(en)
}

// Requeue queues a released entry under a new generation.
func (l *Ledger) Requeue(e int) {
	if e >= 0 && e < len(l.entries) && l.entries[e].state == entryReleased {
		l.requeue(&l.entries[e])
	}
}

// Expire takes back every claim whose deadline is due at now: each is
// requeued under a new generation with an EventRequeue, or lost past
// the attempt budget. It returns the claims as they were held.
func (l *Ledger) Expire(now int64, why string) (gone []Claim, ev []Event) {
	return l.expire(now, func(Claim) string { return why })
}

// expire is Expire with the failure detail of each claim given by why.
func (l *Ledger) expire(now int64, why func(Claim) string) (gone []Claim, ev []Event) {
	for i := range l.entries {
		en := &l.entries[i]
		if en.state != entryClaimed || en.c.Deadline == 0 || now < en.c.Deadline {
			continue
		}
		gone = append(gone, en.c)
		ev = append(ev, l.fail(en, EventRequeue, why(en.c))...)
	}
	return gone, ev
}

// Donate splits kids, children of the node at schedule prefix base, off
// the walk of the attempt holding generation gen of entry e, as new
// entries of its root. Each is logged on e first; a kid already logged
// is skipped, its entry exists. It is a duplicate, and donates nothing,
// when a kid is a proper ancestor of a logged prefix. n is the number
// of entries queued; the ledger keeps copies of the prefixes.
func (l *Ledger) Donate(e, gen int, base, kids []Choice) (v Verdict, n int) {
	if !l.holds(e, gen) || l.closed {
		return VerdictStale, 0
	}
	prefix := append(slices.Clip(base), Choice{})
	for _, c := range kids {
		prefix[len(base)] = c
		if _, under := l.Donated(e, prefix); under {
			return VerdictDuplicate, 0
		}
	}
	for _, c := range kids {
		prefix[len(base)] = c
		if exact, _ := l.Donated(e, prefix); !exact {
			p := slices.Clone(prefix)
			l.entries[e].log = append(l.entries[e].log, p)
			l.add(l.entries[e].c.Root, p, l.entries[e].c.Owner)
			n++
		}
	}
	return VerdictAccepted, n
}

// Donated reports how schedule prefix relates to entry e's donation
// log: exact when a logged prefix equals it, so another entry owns its
// whole subtree; under when it is a proper ancestor of a logged prefix,
// so another entry owns part of its subtree.
func (l *Ledger) Donated(e int, prefix []Choice) (exact, under bool) {
	for _, d := range l.entries[e].log {
		if len(d) >= len(prefix) && slices.Equal(d[:len(prefix)], prefix) {
			exact = exact || len(d) == len(prefix)
			under = under || len(d) > len(prefix)
		}
	}
	return exact, under
}

// Close stops the ledger handing out work: no claim, beat or donation
// succeeds after it. Deliveries and failures still settle.
func (l *Ledger) Close() { l.closed = true }

// Finished reports that every opened root has settled.
func (l *Ledger) Finished() bool { return l.unsettled == 0 }

// Queued is the number of entries waiting for a claim.
func (l *Ledger) Queued() int { return len(l.queue) }

// Settled reports whether root has settled.
func (l *Ledger) Settled(root int) bool { return l.roots[root] != nil && l.roots[root].open == 0 }

// Claims lists the held claims in entry order.
func (l *Ledger) Claims() []Claim {
	var out []Claim
	for i := range l.entries {
		if l.entries[i].state == entryClaimed {
			out = append(out, l.entries[i].c)
		}
	}
	return out
}

// Failures lists the roots lost after the attempt budget.
func (l *Ledger) Failures() map[int]RootFailure {
	out := make(map[int]RootFailure)
	for root, r := range l.roots {
		if r.lost != nil {
			out[root] = *r.lost
		}
	}
	return out
}

// fail ends a held claim that did not deliver: the entry is released
// (and, for an expiry, requeued) within the attempt budget, and lost
// past it, failing its root.
func (l *Ledger) fail(en *ledgerEntry, kind EventKind, why string) []Event {
	if en.c.Attempt < l.maxAttempts {
		en.state = entryReleased
		if kind == EventRequeue {
			l.requeue(en)
		}
		return []Event{{Kind: kind, Root: en.c.Root, Attempt: en.c.Attempt, Err: why}}
	}
	en.state = entryLost
	if r := l.roots[en.c.Root]; r.lost == nil {
		r.lost = &RootFailure{Prefix: l.entries[r.entry].c.Prefix, Attempts: en.c.Attempt, Err: why}
	}
	return l.done(en)
}

func (l *Ledger) requeue(en *ledgerEntry) {
	en.state = entryQueued
	en.c.Gen++
	en.c.Owner, en.c.Deadline = "", 0
	l.queue = append(l.queue, en.c.Entry)
}

// done closes an entry; the last open entry of a root settles it.
func (l *Ledger) done(en *ledgerEntry) []Event {
	r := l.roots[en.c.Root]
	if r.open--; r.open > 0 {
		return nil
	}
	l.unsettled--
	if f := r.lost; f != nil {
		return []Event{{Kind: EventFailed, Root: en.c.Root, Attempt: f.Attempts, Err: f.Err}}
	}
	return []Event{{Kind: EventResolved, Root: en.c.Root}}
}
