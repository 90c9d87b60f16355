package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// compare prints, per workload and metric, the median and quartiles of
// two record files (records.ndjson from two builds measured on one
// host). It refuses to compare records whose host fingerprints differ.
func compare(w io.Writer, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: perfbench compare BASE.ndjson NEW.ndjson")
	}
	var sides [2][]record
	for i, path := range args {
		recs, err := readRecords(path)
		if err != nil {
			return err
		}
		sides[i] = recs
	}
	var fp *host
	for _, recs := range sides {
		for _, r := range recs {
			if fp == nil {
				fp = &r.Host
			} else if r.Host != *fp {
				return fmt.Errorf("records come from different hosts (%s vs %s); they are not comparable", *fp, r.Host)
			}
		}
	}
	type key struct{ workload, metric string }
	values := [2]map[key][]float64{{}, {}}
	units := map[key]string{}
	for i, recs := range sides {
		for _, r := range recs {
			for name, m := range r.Metrics {
				k := key{r.Workload, name}
				values[i][k] = append(values[i][k], m.Value)
				units[k] = m.Unit
			}
		}
	}
	keys := make([]key, 0, len(units))
	for k := range units {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(w, "host: %s\n", fp)
	fmt.Fprintf(w, "%-11s %-30s %-6s %12s %12s %12s %12s %8s\n", "workload", "metric", "unit", "base q1", "base med", "new med", "new q3", "new/base")
	for _, k := range keys {
		a, b := values[0][k], values[1][k]
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		fmt.Fprintf(w, "%-11s %-30s %-6s %12.6g %12.6g %12.6g %12.6g %8.4f  (n=%d/%d)\n", k.workload, k.metric, units[k],
			quantile(a, 0.25), median(a), median(b), quantile(b, 0.75), median(b)/median(a), len(a), len(b))
	}
	return nil
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}
