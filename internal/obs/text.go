// Text exporters: the per-unit utilization/wait-breakdown table, the
// aggregated registry dump, and the interleaved event listing used by
// pasmrun -trace. All output is derived from simulated quantities
// only, so it is byte-identical across runs and host worker counts.
package obs

import (
	"fmt"
	"io"
)

// WriteUnitTable writes one row per unit: final clock, instruction
// count, the synchronization waits the unit accumulated (lockstep
// release, barrier, network data), and the busy fraction that remains.
// Requires Config.Metrics; units without a registry print totals only.
func WriteUnitTable(w io.Writer, r *Recorder) error {
	if _, err := fmt.Fprintf(w, "%-5s %12s %10s %12s %12s %12s %6s\n",
		"unit", "cycles", "instrs", "lockstep-w", "barrier-w", "net-w", "busy%"); err != nil {
		return err
	}
	for _, u := range r.Units() {
		var lock, bar, net int64
		if u.Reg != nil {
			lock = u.Reg.Counter("wait_lockstep_cycles")
			bar = u.Reg.Counter("wait_barrier_cycles")
			net = u.Reg.Counter("wait_net_cycles")
		}
		busy := 0.0
		if u.Clock > 0 {
			busy = 100 * float64(u.Clock-lock-bar-net) / float64(u.Clock)
		}
		if _, err := fmt.Fprintf(w, "%-5s %12d %10d %12d %12d %12d %6.1f\n",
			u.Name, u.Clock, u.Instrs, lock, bar, net, busy); err != nil {
			return err
		}
	}
	return nil
}

// WriteRegistryTable writes an aggregated registry: counters sorted by
// name, then histogram summaries with their populated buckets.
func WriteRegistryTable(w io.Writer, g *Registry) error {
	for _, n := range g.CounterNames() {
		if _, err := fmt.Fprintf(w, "%-24s %14d\n", n, g.Counter(n)); err != nil {
			return err
		}
	}
	for _, n := range g.HistNames() {
		h := g.Histogram(n)
		if h.N == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "%-24s count=%d mean=%.1f min=%d max=%d\n",
			n, h.N, h.Mean(), h.Min, h.Max); err != nil {
			return err
		}
		for i, b := range h.Bounds {
			if h.Counts[i] != 0 {
				if _, err := fmt.Fprintf(w, "  le=%-6d %14d\n", b, h.Counts[i]); err != nil {
					return err
				}
			}
		}
		if c := h.Counts[len(h.Counts)-1]; c != 0 {
			if _, err := fmt.Fprintf(w, "  overflow  %14d\n", c); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteListing renders the retained events of every unit as one
// interleaved, simulated-timestamp-ordered listing: instruction
// retires (as in the old per-unit trace listing) with barrier,
// network, fetch and mode-switch events woven in between, so S/MIMD
// mode switches and synchronization stalls are visible in context.
// disasm, when non-nil, supplies instruction text.
func WriteListing(w io.Writer, r *Recorder, disasm Disasm) error {
	units := r.Units()
	for _, u := range units {
		if d := u.Dropped(); d > 0 {
			if _, err := fmt.Fprintf(w, "... %s: %d earlier events dropped ...\n", u.Name, d); err != nil {
				return err
			}
		}
	}
	for _, ev := range r.Merged() {
		text := describe(ev, units[ev.Unit].Name, disasm)
		if _, err := fmt.Fprintf(w, "%-5s %10d  +%-6d %s\n",
			units[ev.Unit].Name, ev.Clock, ev.Dur, text); err != nil {
			return err
		}
	}
	return nil
}

// describe renders one event's listing text.
func describe(ev Event, unit string, disasm Disasm) string {
	switch ev.Kind {
	case KindInstr:
		return fmt.Sprintf("pc=%-6d %s", ev.PC, disasm.name(unit, ev))
	case KindFetchEnqueue:
		return fmt.Sprintf("fetch-enqueue words=%d", ev.Arg)
	case KindFetchRelease:
		return fmt.Sprintf("fetch-release words=%d", ev.Arg)
	case KindQueueDepth:
		return fmt.Sprintf("queue-depth words=%d", ev.Arg)
	case KindLockstepWait:
		return "lockstep-wait"
	case KindBarrierArrive:
		return "barrier-arrive"
	case KindBarrierRelease:
		return fmt.Sprintf("barrier-release round=%d", ev.Arg)
	case KindNetSend:
		return fmt.Sprintf("net-send dst=%d", ev.Arg)
	case KindNetRecv:
		return "net-recv"
	case KindNetPoll:
		return fmt.Sprintf("net-poll ready=%d", ev.Arg)
	case KindNetReconfig:
		return fmt.Sprintf("net-reconfig dst=%d", ev.Arg)
	case KindModeSwitch:
		if ev.Arg != 0 {
			return "mode-switch -> MIMD section"
		}
		return "mode-switch -> SIMD rejoin"
	}
	return ev.Kind.String()
}
