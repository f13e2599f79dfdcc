package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// runFile is what -out writes and -compare reads: where the run was made
// and every result of it.
type runFile struct {
	Env     envInfo   `json:"env"`
	Results []*result `json:"results"`
}

func readRunFile(path string) (*runFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := &runFile{}
	if err := json.Unmarshal(data, f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

func (f *runFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func (f *runFile) find(workload string, trace bool) *result {
	for _, r := range f.Results {
		if r.Workload == workload && r.Trace == trace {
			return r
		}
	}
	return nil
}

// Verdicts of comparing one metric between a baseline and a candidate.
const (
	verdictOK         = "ok"
	verdictUnresolved = "unresolved"
	verdictRegressed  = "regressed"
)

// judge compares candidate b with baseline a on one metric: ok when b is
// no worse than a by more than the metric's bound (exactly equal, for an
// exact metric); otherwise unresolved when either side's inter-quartile
// spread is wider than the bound, so the difference cannot be told from
// noise; otherwise regressed.
func judge(d metricDef, a, b summary) string {
	if d.exact {
		if a.Median == b.Median {
			return verdictOK
		}
		return verdictRegressed
	}
	worse := b.Median - a.Median
	if d.better == "higher" {
		worse = -worse
	}
	switch {
	case worse <= d.bound*a.Median:
		return verdictOK
	case a.spread() > d.bound || b.spread() > d.bound:
		return verdictUnresolved
	default:
		return verdictRegressed
	}
}

// compareBounds are the bounds -compare holds two of the demoted
// end-to-end candidates to on untraced results, though the driver does not
// gate them. The store entry records the sweep's wall time as a varint, so
// its size is steady to a few bytes rather than exact; the resident-set
// peak keeps the bound the issue gave it.
var compareBounds = map[string]float64{"store_mb": 0.001, "peak_rss_mb": 0.15}

// compared lists the metrics -compare judges: on untraced results the
// gated end-to-end metrics, the demoted ones and the exact ones, on traced
// results every exact per-layer metric.
func compared(trace bool) []metricDef {
	var defs []metricDef
	if !trace {
		defs = append(defs, endToEnd...)
	}
	for _, d := range perLayer {
		if bound, ok := compareBounds[d.name]; ok && !trace {
			d.bound = bound
			defs = append(defs, d)
		} else if d.exact {
			defs = append(defs, d)
		}
	}
	return defs
}

// compareRuns prints, for every workload both files hold, each compared
// metric's two medians and quartiles with its verdict, and reports whether
// any metric regressed.
func compareRuns(w io.Writer, a, b *runFile) (regressed bool) {
	fmt.Fprintf(w, "baseline:  %s\ncandidate: %s\n", a.Env, b.Env)
	for _, ra := range a.Results {
		rb := b.find(ra.Workload, ra.Trace)
		if rb == nil {
			continue
		}
		for _, d := range compared(ra.Trace) {
			va, okA := ra.Metrics[d.name]
			vb, okB := rb.Metrics[d.name]
			if !okA || !okB {
				continue
			}
			v := judge(d, va.summary, vb.summary)
			regressed = regressed || v == verdictRegressed
			fmt.Fprintf(w, "%-16s %-34s %-6s %12.6g [%.6g, %.6g] -> %12.6g [%.6g, %.6g]  %s\n",
				ra.Workload, d.name, d.unit, va.Median, va.Q1, va.Q3, vb.Median, vb.Q1, vb.Q3, v)
		}
	}
	return regressed
}
