package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strconv"

	"castencil/internal/ptg"
)

// csvHeader is the column layout of the on-disk trace format; ReadCSV
// accepts exactly this header.
var csvHeader = []string{"class", "i", "j", "k", "kind", "node", "core", "start_ns", "end_ns", "stolen", "msgs", "bytes"}

// WriteCSV serializes the trace (sorted by start time) for later rendering
// with cmd/traceview.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, e := range t.Events() {
		stolen := "0"
		if e.Stolen {
			stolen = "1"
		}
		rec := []string{
			e.ID.Class,
			strconv.Itoa(e.ID.I), strconv.Itoa(e.ID.J), strconv.Itoa(e.ID.K),
			strconv.Itoa(int(e.Kind)),
			strconv.Itoa(int(e.Node)), strconv.Itoa(int(e.Core)),
			strconv.FormatInt(int64(e.Start), 10), strconv.FormatInt(int64(e.End), 10),
			stolen,
			strconv.Itoa(e.Msgs), strconv.Itoa(e.Bytes),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV loads a trace previously written with WriteCSV.
func ReadCSV(r io.Reader) (*Trace, error) {
	rows, err := csv.NewReader(r).ReadAll() // rejects rows whose width differs from the header's
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("trace: empty CSV")
	}
	if !slices.Equal(rows[0], csvHeader) {
		return nil, fmt.Errorf("trace: unrecognized header %v, want %v", rows[0], csvHeader)
	}
	t := New()
	for ln, rec := range rows[1:] {
		var v [11]int64 // every column after "class"
		for i := range v {
			if v[i], err = strconv.ParseInt(rec[i+1], 10, 64); err != nil {
				return nil, fmt.Errorf("trace: line %d column %s: %v", ln+2, csvHeader[i+1], err)
			}
		}
		t.Record(Event{
			ID:     ptg.TaskID{Class: rec[0], I: int(v[0]), J: int(v[1]), K: int(v[2])},
			Kind:   ptg.Kind(v[3]),
			Node:   int32(v[4]),
			Core:   int32(v[5]),
			Start:  timeDuration(v[6]),
			End:    timeDuration(v[7]),
			Stolen: v[8] != 0,
			Msgs:   int(v[9]),
			Bytes:  int(v[10]),
		})
	}
	return t, nil
}

// MaxCore returns the largest core index seen plus one (the implied core
// count for rendering), and the set of node ids present.
func (t *Trace) MaxCore() (cores int, nodes []int32) {
	seen := map[int32]bool{}
	for _, e := range t.Events() {
		if int(e.Core) >= cores {
			cores = int(e.Core) + 1
		}
		if !seen[e.Node] {
			seen[e.Node] = true
			nodes = append(nodes, e.Node)
		}
	}
	return cores, nodes
}
