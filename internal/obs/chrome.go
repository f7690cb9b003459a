// Chrome trace-event exporter: renders a recorder's merged stream in
// the trace-event "JSON object format" understood by Perfetto
// (ui.perfetto.dev) and chrome://tracing. The whole machine is one
// process; every simulated unit (PE/MC) is one thread track; one
// trace-timestamp unit is one simulated clock cycle (the file declares
// displayTimeUnit "ns" so viewers show raw cycle numbers rather than
// inventing milliseconds).
package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/m68k"
)

// TraceEvent is one entry of a Chrome trace's traceEvents array.
// Timestamps are float64 so callers can rescale a simulated-cycle
// stream onto a host-microsecond timebase (the telemetry merge);
// whole-number values marshal identically to integers, which keeps
// the golden cycle-domain exports byte-stable.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace is the top-level JSON object.
type ChromeTrace struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	Comment         string       `json:"otherData,omitempty"`
}

// ChromeEvents renders a recorder's units and merged stream as trace
// events: per-unit thread metadata first (tids offset by tidBase under
// pid), then the events in merged (Clock, Unit, Seq) order. ts, when
// non-nil, maps a simulated clock value onto the output timebase —
// slice events transform both endpoints, so durations rescale with
// their positions; nil keeps raw cycles. The process_name metadata is
// the caller's to emit (WriteChromeTrace names the lone process; the
// telemetry merge names one process per clock domain).
func ChromeEvents(r *Recorder, disasm Disasm, pid, tidBase int, ts func(clock int64) float64) []TraceEvent {
	units := r.Units()
	merged := r.Merged()
	evs := make([]TraceEvent, 0, 2*len(units)+len(merged))
	for _, u := range units {
		evs = append(evs, TraceEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: tidBase + u.ID,
			Args: map[string]any{"name": u.Name},
		})
		evs = append(evs, TraceEvent{
			Name: "thread_sort_index", Ph: "M", Pid: pid, Tid: tidBase + u.ID,
			Args: map[string]any{"sort_index": tidBase + u.ID},
		})
	}
	for _, ev := range merged {
		out := convertEvent(ev, units[ev.Unit].Name, disasm)
		out.Pid = pid
		out.Tid = tidBase + int(ev.Unit)
		if ts != nil && out.Ph != "M" {
			if out.Ph == "X" {
				start, end := ts(int64(out.Ts)), ts(int64(out.Ts+out.Dur))
				out.Ts, out.Dur = start, end-start
			} else {
				out.Ts = ts(int64(out.Ts))
			}
		}
		evs = append(evs, out)
	}
	return evs
}

// WriteChromeTrace writes the recorder's merged event stream as Chrome
// trace-event JSON. disasm, when non-nil, names instruction slices
// (typically prog.Instrs[pc].String()); otherwise the opcode mnemonic
// is used. Output is fully deterministic: metadata in unit order, then
// events in merged (Clock, Unit, Seq) order, with JSON maps marshaled
// key-sorted by encoding/json.
func WriteChromeTrace(w io.Writer, r *Recorder, disasm Disasm) error {
	evs := make([]TraceEvent, 0, 1)
	evs = append(evs, TraceEvent{
		Name: "process_name", Ph: "M", Pid: 0, Tid: 0,
		Args: map[string]any{"name": "PASM VM"},
	})
	evs = append(evs, ChromeEvents(r, disasm, 0, 0, nil)...)
	buf, err := json.MarshalIndent(ChromeTrace{
		TraceEvents:     evs,
		DisplayTimeUnit: "ns",
		Comment:         "timestamps are simulated PASM clock cycles",
	}, "", " ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// Disasm names a KindInstr event's instruction from its unit's name
// and program counter. It returns "" when the unit's PCs do not index
// a program (the exporters then use the event's mnemonic); a nil
// Disasm names every instruction by mnemonic.
type Disasm func(unit string, pc int) string

// name returns the instruction text of KindInstr event ev on unit.
func (d Disasm) name(unit string, ev Event) string {
	if d != nil {
		if s := d(unit, int(ev.PC)); s != "" {
			return s
		}
	}
	return m68k.Op(ev.Arg).String()
}

// convertEvent maps one simulator event onto a trace event in the raw
// cycle timebase. Slice events span [Clock-Dur, Clock]; instants sit
// at Clock.
func convertEvent(ev Event, unit string, disasm Disasm) TraceEvent {
	out := TraceEvent{Ts: float64(ev.Clock)}
	slice := func(cat, name string) {
		out.Ph, out.Cat, out.Name = "X", cat, name
		out.Ts, out.Dur = float64(ev.Clock-ev.Dur), float64(ev.Dur)
	}
	instant := func(cat, name string) {
		out.Ph, out.Cat, out.Name = "i", cat, name
		out.S = "t"
	}
	switch ev.Kind {
	case KindInstr:
		slice("instr", disasm.name(unit, ev))
		out.Args = map[string]any{"pc": ev.PC}
	case KindFetchEnqueue:
		slice("fetch", "fetch-enqueue")
		out.Args = map[string]any{"words": ev.Arg}
	case KindFetchRelease:
		instant("fetch", "fetch-release")
		out.Args = map[string]any{"words": ev.Arg}
	case KindQueueDepth:
		out.Ph, out.Name = "C", unit+" queue depth"
		out.Args = map[string]any{"words": ev.Arg}
	case KindLockstepWait:
		slice("wait", "lockstep-wait")
	case KindBarrierArrive:
		instant("barrier", "barrier-arrive")
	case KindBarrierRelease:
		slice("wait", "barrier-wait")
		out.Args = map[string]any{"round": ev.Arg}
	case KindNetSend:
		instant("net", "net-send")
		out.Args = map[string]any{"dst": ev.Arg, "wait": ev.Dur}
	case KindNetRecv:
		if ev.Dur > 0 {
			slice("wait", "net-recv-wait")
		} else {
			instant("net", "net-recv")
		}
	case KindNetPoll:
		instant("net", "net-poll")
		out.Args = map[string]any{"ready": ev.Arg}
	case KindNetReconfig:
		slice("net", "net-reconfig")
		out.Args = map[string]any{"dst": ev.Arg}
	case KindModeSwitch:
		if ev.Arg != 0 {
			instant("mode", "mimd-section-begin")
		} else {
			instant("mode", "mimd-section-end")
		}
	default:
		instant("", ev.Kind.String())
	}
	return out
}

// ValidateChromeTrace checks that data is a well-formed trace in the
// exporter's schema: a JSON object whose traceEvents entries each
// carry a name, a known phase, integer pid/tid, a timestamp on
// non-metadata events, and a non-negative duration on complete
// events. Used by the end-to-end harness (scripts/e2e) and the exporter
// tests. It returns the event count on success.
func ValidateChromeTrace(data []byte) (int, error) {
	var doc struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0, fmt.Errorf("obs: trace is not valid JSON: %w", err)
	}
	if doc.TraceEvents == nil {
		return 0, fmt.Errorf("obs: trace has no traceEvents array")
	}
	for i, ev := range doc.TraceEvents {
		name, ok := ev["name"].(string)
		if !ok || name == "" {
			return 0, fmt.Errorf("obs: event %d has no name", i)
		}
		ph, ok := ev["ph"].(string)
		if !ok {
			return 0, fmt.Errorf("obs: event %d (%s) has no phase", i, name)
		}
		switch ph {
		case "M", "X", "i", "I", "C", "B", "E":
		default:
			return 0, fmt.Errorf("obs: event %d (%s) has unknown phase %q", i, name, ph)
		}
		for _, f := range []string{"pid", "tid"} {
			if _, ok := ev[f].(float64); !ok {
				return 0, fmt.Errorf("obs: event %d (%s) has no integer %s", i, name, f)
			}
		}
		if ph == "M" {
			continue
		}
		if _, ok := ev["ts"].(float64); !ok {
			return 0, fmt.Errorf("obs: event %d (%s) has no timestamp", i, name)
		}
		if ph == "X" {
			if dur, present := ev["dur"]; present {
				d, ok := dur.(float64)
				if !ok || d < 0 {
					return 0, fmt.Errorf("obs: event %d (%s) has invalid dur %v", i, name, dur)
				}
			}
		}
	}
	return len(doc.TraceEvents), nil
}
