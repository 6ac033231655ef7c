// Command roundbench is the BiScatter round benchmark: closed-loop
// workloads that time the two-way round end to end — in process through
// core.Network.Exchange, and over a loopback netio gateway from each tag
// client's SubmitRound to its RoundResult — and check every result. With
// --trace 1 it reports per-layer metrics instead, measured from outside the
// program. See README.md for the workloads and every metric.
//
// Usage:
//
//	roundbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("roundbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed for the generated payloads and uplink bits")
	seconds := fs.Float64("seconds", 10, "timed-loop length in seconds")
	traced := fs.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	switch {
	case err != nil:
	case *seconds <= 0:
		err = errors.New("--seconds must be positive")
	case *traced != 0 && *traced != 1:
		err = errors.New("--trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(stderr, "roundbench:", err)
		return 2
	}
	dur := time.Duration(*seconds * float64(time.Second))
	var rep *report
	if *traced == 1 {
		rep, err = runTraced(w, *seed, dur)
	} else {
		rep, err = runEndToEnd(w, *seed, dur)
	}
	if err != nil {
		fmt.Fprintf(stderr, "roundbench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d\n", w.name, *seed, *seconds, *traced)
	if err := rep.write(stdout); err != nil {
		fmt.Fprintln(stderr, "roundbench:", err)
		return 1
	}
	if !rep.correct {
		fmt.Fprintf(stderr, "roundbench: %s: correctness check failed: %v\n", w.name, rep.gate)
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// report is one run's result: the correctness verdict, the request counts
// and the metrics in print order.
type report struct {
	correct           bool
	gate              error
	attempted, failed int
	lines             []line
}

type line struct {
	name  string
	value float64
	unit  string
	note  string
}

// newReport counts the submissions; a failed correctness gate fails every
// one of them.
func newReport(subs []submission, gate error) *report {
	r := &report{gate: gate, attempted: len(subs), failed: failedCount(subs)}
	if gate != nil {
		r.failed = r.attempted
	}
	r.correct = gate == nil && r.failed == 0
	return r
}

func (r *report) add(name string, v float64, unit, note string) {
	r.lines = append(r.lines, line{name, v, unit, note})
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// write prints one readable line per metric, then the JSON result line.
func (r *report) write(w io.Writer) error {
	out := jsonResult{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]jsonMetric, len(r.lines))}
	for _, l := range r.lines {
		v := l.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", l.name, v)
		}
		fmt.Fprintf(w, "  %-32s %14.6g %-6s %s\n", l.name, v, l.unit, l.note)
		out.Metrics[l.name] = jsonMetric{Value: v, Unit: l.unit}
	}
	verdict := "all checks passed"
	if r.gate != nil {
		verdict = "FAILED: " + r.gate.Error()
	}
	fmt.Fprintf(w, "correctness: %s; %d attempted, %d failed\n", verdict, r.attempted, r.failed)
	buf, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", buf)
	return err
}
