package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// settings are what two runs must share before their numbers can be
// compared.
type settings struct {
	seconds, sf float64
	clients     int
}

// side is the result files of one commit: per workload, the settings the
// files share, one value per file of every end-to-end metric, and the
// statements attempted and failed over all files.
type side struct {
	defs              []metricDef
	settings          map[string]settings
	values            map[string]map[string][]float64
	spin              map[string][]float64
	attempted, failed map[string]int
}

func readSide(paths []string) (*side, error) {
	s := &side{settings: make(map[string]settings), values: make(map[string]map[string][]float64),
		spin: make(map[string][]float64), attempted: make(map[string]int), failed: make(map[string]int)}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(b, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		s.defs = rep.EndToEnd
		for _, r := range rep.Workloads {
			if r.Traced {
				continue
			}
			set := settings{r.Seconds, r.SF, r.Clients}
			if s.values[r.Workload] == nil {
				s.values[r.Workload] = make(map[string][]float64)
				s.settings[r.Workload] = set
			} else if s.settings[r.Workload] != set {
				return nil, fmt.Errorf("%s: %s ran with %+v, an earlier file with %+v", path, r.Workload, set, s.settings[r.Workload])
			}
			for name, m := range r.Metrics {
				s.values[r.Workload][name] = append(s.values[r.Workload][name], m.Value)
			}
			s.spin[r.Workload] = append(s.spin[r.Workload], r.SpinMS)
			s.attempted[r.Workload] += r.Attempted
			s.failed[r.Workload] += r.Failed
		}
	}
	return s, nil
}

// spread is the distance between the quartiles as a share of the median,
// with the quartiles taken as Python's statistics.quantiles(n=4) takes
// them; 0 with fewer than two values.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sorted(xs)
	q := func(k int) float64 { // exclusive method: position k(n+1)/4, clamped to the sample range
		pos := float64(k*(len(s)+1)) / 4
		i := int(math.Floor(pos))
		switch {
		case i < 1:
			return s[0]
		case i >= len(s):
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return ratio(q(3)-q(1), median(s))
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the change counted so that positive is worse, the metric's bound and a
// verdict: regressed when the change is worse by more than the bound,
// unresolved when either side's own spread is wider than the bound, ok
// otherwise. Where both sides have the same number of files it also counts
// the pairs (first file against first file, and so on) in which the
// change was worse: a shift inside the bound that nine pairs of ten agree
// on is still a shift. failed_frac, the statements failed over the
// statements attempted, has no bound: any increase is a regression. Runs
// that differ in length, scale factor or client count are not compared at
// all. It reports whether anything regressed.
func compareFiles(parent, change []string) (bool, error) {
	a, err := readSide(parent)
	if err != nil {
		return false, err
	}
	b, err := readSide(change)
	if err != nil {
		return false, err
	}
	for _, w := range workloads {
		if sa, ok := a.settings[w.name]; ok && b.values[w.name] != nil && sa != b.settings[w.name] {
			return false, fmt.Errorf("%s: the parent ran with %+v, the change with %+v", w.name, sa, b.settings[w.name])
		}
	}
	regressed := false
	fmt.Printf("%-14s %-22s %14s %14s %8s %6s %6s  %s\n", "workload", "metric", "parent", "change", "worse", "bound", "pairs", "verdict")
	for _, w := range workloads {
		if a.values[w.name] == nil || b.values[w.name] == nil {
			continue
		}
		fmt.Printf("%-14s %-22s %14.1f %14.1f\n", w.name, "env.spin_ms", median(a.spin[w.name]), median(b.spin[w.name]))
		fa := ratio(float64(a.failed[w.name]), float64(a.attempted[w.name]))
		fb := ratio(float64(b.failed[w.name]), float64(b.attempted[w.name]))
		verdict := "ok"
		if fb > fa {
			verdict = "regressed"
			regressed = true
		}
		fmt.Printf("%-14s %-22s %14.6f %14.6f %8s %6s %6s  %s (%d of %d, %d of %d)\n", w.name, "failed_frac", fa, fb, "", "any", "",
			verdict, a.failed[w.name], a.attempted[w.name], b.failed[w.name], b.attempted[w.name])
		for _, d := range a.defs {
			pa, pb := a.values[w.name][d.Name], b.values[w.name][d.Name]
			if len(pa) == 0 || len(pb) == 0 {
				continue
			}
			ma, mb := median(pa), median(pb)
			worse := ratio(mb-ma, ma)
			if d.Better == "higher" {
				worse = -worse
			}
			pairs := ""
			if len(pa) == len(pb) && len(pa) > 1 {
				lost := 0
				for i := range pa {
					if diff := pb[i] - pa[i]; diff != 0 && (diff < 0) == (d.Better == "higher") {
						lost++
					}
				}
				pairs = fmt.Sprintf("%d/%d", lost, len(pa))
			}
			verdict := "ok"
			switch {
			case math.Max(spread(pa), spread(pb)) > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "regressed"
				regressed = true
			}
			fmt.Printf("%-14s %-22s %14.4f %14.4f %+7.1f%% %5.0f%% %6s  %s\n", w.name, d.Name, ma, mb, 100*worse, 100*d.Bound, pairs, verdict)
		}
	}
	return regressed, nil
}
