package obs

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTraceStoreConcurrentPut hammers a trace ring from many goroutines
// under -race: every snapshot must only ever observe complete traces in
// put order, and the ring ends full.
func TestTraceStoreConcurrentPut(t *testing.T) {
	type seqTrace struct {
		seq int64
		t   *Trace
	}
	r := NewRing(16, func(v *seqTrace, seq int64) { v.seq = seq })
	const writers, per = 8, 200
	stop := make(chan struct{})
	var readerWg sync.WaitGroup
	readerWg.Add(1)
	go func() { // concurrent reader
		defer readerWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := r.Snapshot()
			for i := range snap {
				if snap[i].t == nil || (i > 0 && snap[i].seq != snap[i-1].seq+1) {
					t.Error("snapshot holds an incomplete trace or is out of order")
					return
				}
			}
		}
	}()
	var writerWg sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(w int) {
			defer writerWg.Done()
			for i := 0; i < per; i++ {
				r.Put(seqTrace{t: &Trace{QueryID: fmt.Sprintf("q%d-%d", w, i), Start: time.Now()}})
			}
		}(w)
	}
	writerWg.Wait()
	close(stop)
	readerWg.Wait()
	if got := r.Len(); got != 16 {
		t.Fatalf("Len = %d after %d puts into a 16-slot ring, want 16", got, writers*per)
	}
	if snap := r.Snapshot(); len(snap) != 16 || snap[15].seq != writers*per {
		t.Fatalf("Snapshot returned %d traces ending at seq %d, want 16 ending at %d", len(snap), snap[len(snap)-1].seq, writers*per)
	}
}

// TestHistogramCountMatchesInf exposes histograms — a registered family
// and the per-fingerprint statement family — while goroutines observe
// into them, and checks that every series' _count equals its +Inf
// bucket in each exposition.
func TestHistogramCountMatchesInf(t *testing.T) {
	reg := NewRegistry()
	h := NewHistogram(10, 100, 1000)
	reg.HistogramVar("perm_test_seconds", "Test latency.", h, 1e-9)
	stmts := NewStmtStore(DefaultStmtCapacity, DefaultPlanFlipRing)
	reg.RawCollector(stmts.WritePrometheus)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(int64(i % 2000))
				stmts.Observe(fmt.Sprintf("fp%d", i%3), "q", time.Duration(i%5)*time.Millisecond, 1, false)
			}
		}(w)
	}
	defer func() { close(stop); wg.Wait() }()
	for round := 0; round < 200; round++ {
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		inf := map[string]string{}   // series (name and labels without le) → +Inf bucket
		count := map[string]string{} // series → _count
		sc := bufio.NewScanner(strings.NewReader(sb.String()))
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "#") {
				continue
			}
			series, value, _ := strings.Cut(line, " ")
			if name, ok := strings.CutSuffix(series, `le="+Inf"}`); ok && strings.Contains(name, "_bucket{") {
				name = strings.Replace(strings.TrimSuffix(strings.TrimSuffix(name, ","), "{"), "_bucket", "", 1)
				inf[name] = value
			} else if name, labels, _ := strings.Cut(series, "{"); strings.HasSuffix(name, "_count") {
				if labels != "" {
					labels = "{" + strings.TrimSuffix(labels, "}")
				}
				count[strings.TrimSuffix(name, "_count")+labels] = value
			}
		}
		if len(inf) == 0 || len(inf) != len(count) {
			t.Fatalf("round %d: %d +Inf buckets, %d counts:\n%s", round, len(inf), len(count), sb.String())
		}
		for series, c := range count {
			if _, err := strconv.ParseInt(c, 10, 64); err != nil || inf[series] != c {
				t.Fatalf("round %d: %s _count %s, +Inf bucket %q", round, series, c, inf[series])
			}
		}
	}
}
