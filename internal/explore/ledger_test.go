package explore

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/sim"
)

// ledgerObject is the root ledger as one shared object of a simulated
// system, so that every ledger step a process takes is one atomic step
// the explorer schedules. Next to the ledger it keeps the bookkeeping
// the checks compare the ledger against; err holds the first violation.
type ledgerObject struct {
	l          *Ledger
	closed     bool
	accepted   map[int]int     // accepted deliveries, by entry
	superseded map[[2]int]bool // (entry, generation) taken back by an expiry
	settled    map[int]int     // settle events, by root
	refused    int             // donations refused as duplicates
	err        error
}

// ledgerDonation is a worker's scripted donation: children kids of the
// node at schedule prefix base.
type ledgerDonation struct{ base, kids []Choice }

func (o *ledgerObject) Name() string { return "ledger" }

func (o *ledgerObject) Apply(caller sim.ProcID, op sim.OpKind, args []sim.Value) (sim.Value, error) {
	var out sim.Value
	var ev []Event
	switch op {
	case "claim":
		if c, e, ok := o.l.Claim(fmt.Sprint(caller), 1); ok {
			out, ev = c, e
		}
	case "donate":
		c, d := args[0].(Claim), args[1].(ledgerDonation)
		if v, _ := o.l.Donate(c.Entry, c.Gen, d.base, d.kids); v == VerdictDuplicate {
			o.refused++
		}
	case "deliver":
		c := args[0].(Claim)
		var v Verdict
		if v, ev = o.l.Deliver(c.Entry, c.Gen); v == VerdictAccepted {
			if o.accepted[c.Entry]++; o.accepted[c.Entry] > 1 {
				o.fail("entry %d accepted a second delivery", c.Entry)
			}
			if o.superseded[[2]int{c.Entry, c.Gen}] {
				o.fail("entry %d accepted a delivery at superseded generation %d", c.Entry, c.Gen)
			}
		}
	case "expire":
		var gone []Claim
		gone, ev = o.l.Expire(1, "expired")
		for _, c := range gone {
			o.superseded[[2]int{c.Entry, c.Gen}] = true
		}
	case "close":
		o.l.Close()
		o.closed = true
	}
	o.observe(ev)
	o.checkLogs()
	return out, nil
}

func (o *ledgerObject) fail(format string, args ...any) {
	if o.err == nil {
		o.err = fmt.Errorf(format, args...)
	}
}

// observe checks the settle events of one step: a root settles once,
// and only when every entry of it is done.
func (o *ledgerObject) observe(ev []Event) {
	for _, e := range ev {
		if e.Kind != EventResolved && e.Kind != EventFailed {
			continue
		}
		if o.settled[e.Root]++; o.settled[e.Root] > 1 {
			o.fail("root %d settled twice", e.Root)
		}
		for _, en := range o.l.entries {
			if en.c.Root == e.Root && en.state != entryResolved && en.state != entryLost {
				o.fail("root %d settled before its entry %d", e.Root, en.c.Entry)
			}
		}
	}
}

// checkLogs checks that no donation log holds a prefix and one of its
// ancestors, and that the entries of a root partition its tree: when
// one entry's prefix is an ancestor of (or equal to) another's, a
// donation logged on the first excises the second's subtree.
func (o *ledgerObject) checkLogs() {
	under := func(a, b []Choice) bool { return len(a) <= len(b) && slices.Equal(a, b[:len(a)]) }
	for _, x := range o.l.entries {
		for i, d := range x.log {
			for j, d2 := range x.log {
				if i != j && under(d, d2) {
					o.fail("entry %d logged %s and its descendant %s", x.c.Entry, FormatSchedule(d), FormatSchedule(d2))
				}
			}
		}
		for _, y := range o.l.entries {
			if x.c.Entry == y.c.Entry || x.state == entryLost || y.state == entryLost || !under(x.c.Prefix, y.c.Prefix) {
				continue
			}
			if !slices.ContainsFunc(x.log, func(d []Choice) bool { return under(d, y.c.Prefix) }) {
				o.fail("entries %d (%s) and %d (%s) overlap", x.c.Entry, FormatSchedule(x.c.Prefix), y.c.Entry, FormatSchedule(y.c.Prefix))
			}
		}
	}
}

// drain continues a run that did not close the ledger fairly: every
// claim still held (a crashed worker's) expires, and a fresh worker
// claims and delivers whatever is queued. It reports what is left
// unsettled.
func (o *ledgerObject) drain() error {
	_, ev := o.l.Expire(2, "expired")
	o.observe(ev)
	for {
		c, _, ok := o.l.Claim("drain", 0)
		if !ok {
			break
		}
		_, ev := o.l.Deliver(c.Entry, c.Gen)
		o.observe(ev)
	}
	if !o.l.Finished() {
		return errors.New("the drained ledger left a root unsettled")
	}
	return o.err
}

// TestLedgerModelCheck explores every interleaving of two workers and
// an adversary stepping one ledger, with one crash. A worker claims up
// to twice, donates by script and delivers at the claimed generation;
// the script includes the retried-donor trigger: attempt 1 of the root
// entry donates `0 1`, and when it is expired attempt 2 offers `0`,
// its ancestor. The adversary expires every claim twice and closes the
// ledger. A crashed worker stands for a killed one, a worker delivering
// after an expiry for a resurrected straggler. Every step checks that
// no entry accepts two deliveries, no delivery at a superseded
// generation is accepted, no donation log holds a prefix and one of
// its ancestors, the entries of a root partition its tree, and each
// root settles once, after its last entry. A complete run that did not
// close the ledger, continued fairly (drain), settles every root.
func TestLedgerModelCheck(t *testing.T) {
	scripts := map[int]ledgerDonation{ // root entry's donation, by attempt
		1: {base: []Choice{{Pick: 0}}, kids: []Choice{{Pick: 1}}},
		2: {kids: []Choice{{Pick: 0}, {Pick: 2}}},
		3: {kids: []Choice{{Pick: 2}}},
	}
	var cur *ledgerObject
	var first error
	refused := 0
	build := func() *sim.System {
		if cur != nil {
			refused += cur.refused
		}
		cur = &ledgerObject{
			l: NewLedger(3), accepted: map[int]int{}, superseded: map[[2]int]bool{}, settled: map[int]int{},
		}
		cur.l.Open(0, nil)
		obj := cur
		sys := sim.NewSystem()
		sys.Add(obj)
		worker := func(e *sim.Env) (sim.Value, error) {
			for round := 0; round < 2; round++ {
				c, ok := e.Apply0(obj, "claim").(Claim)
				if !ok {
					continue
				}
				if d, ok := scripts[c.Attempt]; ok && c.Entry == 0 {
					e.Apply2(obj, "donate", c, d)
				}
				e.Apply1(obj, "deliver", c)
			}
			return nil, nil
		}
		sys.Spawn(worker)
		sys.Spawn(worker)
		sys.Spawn(func(e *sim.Env) (sim.Value, error) {
			e.Apply0(obj, "expire")
			e.Apply0(obj, "expire")
			e.Apply0(obj, "close")
			return nil, nil
		})
		return sys
	}
	c := Run(build, Options{MaxCrashes: 1}, func(*sim.Result) error {
		err := cur.err
		if !cur.closed {
			err = cur.drain()
		}
		if first == nil {
			first = err
		}
		return err
	})
	refused += cur.refused
	if !c.Exhaustive || c.Incomplete != 0 {
		t.Fatalf("model census not exhaustive: %d complete, %d incomplete, exhaustive=%v", c.Complete, c.Incomplete, c.Exhaustive)
	}
	if c.ViolationRuns != 0 {
		t.Fatalf("%d of %d runs violate the ledger's rules; first: %v (schedule %s)",
			c.ViolationRuns, c.Complete, first, FormatSchedule(c.Violations[0].Schedule))
	}
	if refused == 0 {
		t.Fatal("no run reached the retried-donor trigger")
	}
	t.Logf("%d runs, %d refused ancestor donations", c.Complete, refused)
}
