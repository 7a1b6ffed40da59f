package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"slices"
)

// Span is one event of a Chrome trace (chrome://tracing, Perfetto):
// a complete slice of Dur microseconds starting at Ts, or, when Instant
// is set, an instant at Ts with that scope ("t" thread, "p" process).
// Process and Thread name the track it lands on.
type Span struct {
	Process, Thread string
	Name, Cat       string
	Ts, Dur         int64
	Instant         string
	// Args is the event's JSON object (nil renders as {}).
	Args json.RawMessage
}

// traceEvent is one Chrome trace-event JSON object.
type traceEvent struct {
	Ph   string          `json:"ph"`
	Name string          `json:"name"`
	Cat  string          `json:"cat,omitempty"`
	Pid  int             `json:"pid"`
	Tid  int             `json:"tid"`
	Ts   int64           `json:"ts"`
	Dur  *int64          `json:"dur,omitempty"`
	S    string          `json:"s,omitempty"`
	Args json.RawMessage `json:"args"`
}

// WriteChromeTrace renders spans as a Chrome trace-event JSON array, in
// order. Each process and thread name becomes a pid/tid (numbered by
// sorted name, so repeated captures line up) announced by an "M"
// metadata event. It returns the first write error.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	threads := map[string][]string{}
	for _, s := range spans {
		if !slices.Contains(threads[s.Process], s.Thread) {
			threads[s.Process] = append(threads[s.Process], s.Thread)
		}
	}
	procs := make([]string, 0, len(threads))
	for p := range threads {
		procs = append(procs, p)
	}
	slices.Sort(procs)
	type track struct{ process, thread string }
	ids := map[track][2]int{}
	var meta []traceEvent
	for i, p := range procs {
		meta = append(meta, traceEvent{Ph: "M", Name: "process_name", Pid: i + 1, Args: nameArgs(p)})
	}
	for i, p := range procs {
		slices.Sort(threads[p])
		for j, th := range threads[p] {
			ids[track{p, th}] = [2]int{i + 1, j + 1}
			meta = append(meta, traceEvent{Ph: "M", Name: "thread_name", Pid: i + 1, Tid: j + 1, Args: nameArgs(th)})
		}
	}

	bw := bufio.NewWriter(w)
	bw.WriteString("[\n")
	emit := func(i int, e traceEvent) error {
		if i > 0 {
			bw.WriteString(",\n")
		}
		if e.Args == nil {
			e.Args = json.RawMessage("{}")
		}
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		_, err = bw.Write(b)
		return err
	}
	for i, e := range meta {
		if err := emit(i, e); err != nil {
			return err
		}
	}
	for i, s := range spans {
		id := ids[track{s.Process, s.Thread}]
		e := traceEvent{Ph: "X", Name: s.Name, Cat: s.Cat, Pid: id[0], Tid: id[1], Ts: s.Ts, Args: s.Args}
		if s.Instant != "" {
			e.Ph, e.S = "i", s.Instant
		} else {
			e.Dur = &s.Dur
		}
		if err := emit(len(meta)+i, e); err != nil {
			return err
		}
	}
	bw.WriteString("\n]\n")
	return bw.Flush()
}

func nameArgs(name string) json.RawMessage {
	b, _ := json.Marshal(map[string]string{"name": name})
	return b
}
