package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// synthRecorder builds a small recorder covering every event shape the
// exporter distinguishes.
func synthRecorder() *Recorder {
	r := New(Config{Events: AllKinds, Metrics: true})
	pe := r.Unit("PE0")
	mc := r.Unit("MC0")
	r.Emit(pe, Event{Kind: KindInstr, Clock: 42, Dur: 42, PC: 3, Arg: 14}) // MULU opcode
	r.Emit(pe, Event{Kind: KindLockstepWait, Clock: 60, Dur: 8})
	r.Emit(pe, Event{Kind: KindBarrierArrive, Clock: 70})
	r.Emit(pe, Event{Kind: KindBarrierRelease, Clock: 100, Dur: 30, Arg: 1})
	r.Emit(pe, Event{Kind: KindNetSend, Clock: 110, Arg: 1})
	r.Emit(pe, Event{Kind: KindNetRecv, Clock: 130, Dur: 12})
	r.Emit(pe, Event{Kind: KindNetRecv, Clock: 140})
	r.Emit(pe, Event{Kind: KindNetPoll, Clock: 150, Arg: 1})
	r.Emit(pe, Event{Kind: KindNetReconfig, Clock: 220, Dur: 64, Arg: 5})
	r.Emit(pe, Event{Kind: KindModeSwitch, Clock: 230, Arg: 1})
	r.Emit(pe, Event{Kind: KindModeSwitch, Clock: 260})
	r.Emit(mc, Event{Kind: KindFetchEnqueue, Clock: 20, Dur: 6, Arg: 3})
	r.Emit(mc, Event{Kind: KindQueueDepth, Clock: 20, Arg: 3})
	r.Emit(mc, Event{Kind: KindFetchRelease, Clock: 30, Arg: 3})
	r.Finish(pe, 260, 1)
	r.Finish(mc, 30, 1)
	return r
}

func TestWriteChromeTraceValidates(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, synthRecorder(), nil); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// 1 process_name + 2*(thread_name+sort) + 14 events.
	if want := 1 + 4 + 14; n != want {
		t.Fatalf("trace has %d events, want %d", n, want)
	}
}

func TestChromeTraceSlicesSpanDuration(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, synthRecorder(), nil); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.Name == "barrier-wait" {
			found = true
			if ev.Ph != "X" || ev.Ts != 70 || ev.Dur != 30 {
				t.Fatalf("barrier-wait slice ph=%s ts=%v dur=%v, want X/70/30", ev.Ph, ev.Ts, ev.Dur)
			}
		}
	}
	if !found {
		t.Fatal("no barrier-wait slice in trace")
	}
}

func TestChromeTraceDisasmNamesInstrs(t *testing.T) {
	var buf bytes.Buffer
	err := WriteChromeTrace(&buf, synthRecorder(), func(unit string, pc int) string { return "INSTR@3" })
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("INSTR@3")) {
		t.Fatal("disasm text not used for instruction slice names")
	}
}

func TestValidateChromeTraceRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":     `{`,
		"no array":     `{"displayTimeUnit":"ns"}`,
		"no name":      `{"traceEvents":[{"ph":"i","ts":1,"pid":0,"tid":0}]}`,
		"bad phase":    `{"traceEvents":[{"name":"x","ph":"Z","ts":1,"pid":0,"tid":0}]}`,
		"no pid":       `{"traceEvents":[{"name":"x","ph":"i","ts":1,"tid":0}]}`,
		"no timestamp": `{"traceEvents":[{"name":"x","ph":"i","pid":0,"tid":0}]}`,
		"negative dur": `{"traceEvents":[{"name":"x","ph":"X","ts":1,"dur":-5,"pid":0,"tid":0}]}`,
		"string ts":    `{"traceEvents":[{"name":"x","ph":"i","ts":"1","pid":0,"tid":0}]}`,
	}
	for name, data := range cases {
		if _, err := ValidateChromeTrace([]byte(data)); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
	ok := `{"traceEvents":[{"name":"m","ph":"M","pid":0,"tid":0},{"name":"x","ph":"X","ts":1,"dur":5,"pid":0,"tid":0}]}`
	if n, err := ValidateChromeTrace([]byte(ok)); err != nil || n != 2 {
		t.Fatalf("well-formed trace rejected: n=%d err=%v", n, err)
	}
}
