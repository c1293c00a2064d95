// Command bench7 measures the forecast-state serving layer: it builds a
// quantized snapshot archive from a coupled run, storms the query API with
// concurrent point lookups over HTTP, cross-checks the staged nearest-analog
// pipeline against the brute-force float64 reference, and times the live
// ingest hook against an identical run without it. It writes the result as
// BENCH_7.json and validates its own output before exiting, including the
// acceptance gates: at least 1000 point queries/sec, exact analog top-k
// agreement, and at most 2% step-time regression from live ingest.
//
//	bench7 [-config 25v10] [-steps 36] [-snapshots 48] [-clients 8] [-queries 4000] [-out BENCH_7.json]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/pp"
	"repro/internal/statestore"
)

// ingestTolerance is the allowed live-ingest step-time regression: the
// ingesting run must hold at least this fraction of the baseline
// throughput. The hook's cost is a collective gather per checkpoint plus a
// non-blocking channel send; persistence happens on a side goroutine.
const ingestTolerance = 0.98

// minPointQPS is the concurrent point-query throughput floor. Point decode
// touches 12 bytes of one group, so even the HTTP round trip leaves orders
// of magnitude of headroom over this gate.
const minPointQPS = 1000

// result is the benchmark record `make check` consumes.
type result struct {
	Name   string `json:"name"`
	Config string `json:"config"`

	// Archive build (phase A).
	Snapshots   int   `json:"snapshots"`
	FieldCells  int   `json:"field_cells"`  // elements across the schema
	RawBytes    int64 `json:"raw_bytes"`    // float64 volume offered
	StoredBytes int64 `json:"stored_bytes"` // quantized volume on disk

	// Concurrent query storm over HTTP (phase B).
	Clients      int     `json:"clients"`
	PointQueries int     `json:"point_queries"`
	PointQPS     float64 `json:"point_qps"`

	// Nearest-analog exactness (phase C).
	AnalogChecks int  `json:"analog_checks"`
	AnalogExact  bool `json:"analog_exact"`

	// Live-ingest overhead (phase D): best-of-3 resilient runs each way.
	Steps           int     `json:"steps"`
	BaselineStepsPS float64 `json:"baseline_steps_per_sec"`
	IngestStepsPS   float64 `json:"ingest_steps_per_sec"`
	IngestRatio     float64 `json:"ingest_ratio"`
	IngestSnapshots int     `json:"ingest_snapshots"`
	IngestDropped   int64   `json:"ingest_dropped"`

	WallSec   float64 `json:"wall_sec"`
	Timestamp string  `json:"timestamp"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench7: ")
	label := flag.String("config", "25v10", "coupled configuration label")
	steps := flag.Int("steps", 36, "coupling steps per live-ingest lap")
	snapshots := flag.Int("snapshots", 48, "archive snapshots to build for the query phases")
	clients := flag.Int("clients", 8, "concurrent query clients")
	queries := flag.Int("queries", 4000, "total point queries for the storm")
	out := flag.String("out", "BENCH_7.json", "output path")
	flag.Parse()

	cfg, err := core.ConfigForLabel(*label)
	if err != nil {
		log.Fatal(err)
	}
	wall := time.Now()
	res := result{Name: "forecast-serving", Config: cfg.Label, Clients: *clients, Steps: *steps}

	dir, err := os.MkdirTemp("", "bench7-store-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	buildArchive(cfg, dir, *snapshots, &res)
	st, err := statestore.Open(dir, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	queryStorm(st, *clients, *queries, &res)
	analogCheck(st, &res)
	liveIngest(cfg, *steps, &res)

	res.WallSec = time.Since(wall).Seconds()
	res.Timestamp = time.Now().UTC().Format(time.RFC3339)

	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	if err := validate(*out); err != nil {
		log.Fatalf("self-validation of %s failed: %v", *out, err)
	}
	fmt.Printf("%s: %d snapshots (%.2fx compressed), %.0f point q/s over %d clients, analogs exact=%v, ingest ratio %.3f\n",
		res.Name, res.Snapshots, float64(res.RawBytes)/float64(res.StoredBytes),
		res.PointQPS, res.Clients, res.AnalogExact, res.IngestRatio)
	fmt.Printf("wrote %s\n", *out)
}

// buildArchive steps a 1-rank coupled model and appends one snapshot per
// coupling step until the archive holds n snapshots.
func buildArchive(cfg core.Config, dir string, n int, res *result) {
	w, err := statestore.Create(dir, 0, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer w.Close()
	start := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)
	par.Run(1, func(c *par.Comm) {
		e, err := core.NewWithOptions(cfg, c,
			core.WithInterval(start, start.Add(240*time.Hour)),
			core.WithSpace(pp.Serial{}))
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if !e.Step() {
				log.Fatalf("model stopped after %d steps", i)
			}
			snap, ok := e.CaptureServeSnapshot()
			if !ok {
				log.Fatal("rank 0 capture returned ok=false")
			}
			for _, f := range snap.Fields {
				res.RawBytes += int64(8 * len(f.Data))
				if i == 0 {
					res.FieldCells += len(f.Data)
				}
			}
			if err := w.Append(snap); err != nil {
				log.Fatal(err)
			}
		}
	})
	res.Snapshots = w.Snapshots()
	fi, err := os.Stat(filepath.Join(dir, statestore.DataFile))
	if err != nil {
		log.Fatal(err)
	}
	res.StoredBytes = fi.Size()
}

// queryStorm serves the archive over HTTP and hammers /v1/point with
// concurrent clients, each walking a deterministic snap/cell sequence.
func queryStorm(st *statestore.Store, clients, queries int, res *result) {
	srv, err := statestore.NewServer(st, "127.0.0.1:0", nil)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()
	nSnaps := st.Snapshots()
	cells := 0
	for _, f := range st.Fields() {
		if f.Name == statestore.PsField {
			cells = f.Elems
		}
	}
	perClient := queries / clients
	var done, failed atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for q := 0; q < perClient; q++ {
				snap := (cl*131 + q*7) % nSnaps
				cell := (cl*17 + q*13) % cells
				url := fmt.Sprintf("%s/v1/point?field=%s&cell=%d&snap=%d", base, statestore.PsField, cell, snap)
				resp, err := http.Get(url)
				if err != nil || resp.StatusCode != http.StatusOK {
					failed.Add(1)
					if resp != nil {
						resp.Body.Close()
					}
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				done.Add(1)
			}
		}(cl)
	}
	wg.Wait()
	elapsed := time.Since(t0).Seconds()
	if failed.Load() > 0 {
		log.Fatalf("%d of %d point queries failed", failed.Load(), queries)
	}
	res.PointQueries = int(done.Load())
	if elapsed > 0 {
		res.PointQPS = float64(done.Load()) / elapsed
	}
}

// analogCheck compares the staged analog pipeline with the brute-force
// float64 reference for several query snapshots and k values: top-k must
// match exactly — same snapshots, bit-identical distances.
func analogCheck(st *statestore.Store, res *result) {
	res.AnalogExact = true
	for _, snap := range []int{0, st.Snapshots() / 2, st.Snapshots() - 1} {
		q, err := st.DecodeField(snap, statestore.PsField)
		if err != nil {
			log.Fatal(err)
		}
		for _, k := range []int{1, 5, st.Snapshots()} {
			got, err := st.NearestAnalogs(statestore.PsField, q, k, 4)
			if err != nil {
				log.Fatal(err)
			}
			want, err := st.BruteForceAnalogs(statestore.PsField, q, k)
			if err != nil {
				log.Fatal(err)
			}
			res.AnalogChecks++
			if len(got) != len(want) {
				res.AnalogExact = false
				continue
			}
			for i := range got {
				if got[i].Snap != want[i].Snap || got[i].Dist != want[i].Dist {
					res.AnalogExact = false
				}
			}
		}
	}
}

// liveIngest times best-of-3 resilient runs with the capture hook ingesting
// into a fresh store against best-of-3 identical runs without it.
func liveIngest(cfg core.Config, steps int, res *result) {
	days := float64(steps) / float64(cfg.AtmCouplingsPerDay)
	ckEvery := steps / 4
	if ckEvery < 1 {
		ckEvery = 1
	}
	start := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)
	lap := func(hook func(e *core.ESM), ckDir string) float64 {
		var sps float64
		par.Run(1, func(c *par.Comm) {
			mk := func() (*core.ESM, error) {
				return core.NewWithOptions(cfg, c,
					core.WithInterval(start, start.Add(240*time.Hour)),
					core.WithSpace(pp.Serial{}))
			}
			t0 := time.Now()
			_, rep, err := core.RunResilient(mk, core.ResilientConfig{
				Days: days, CheckpointEvery: ckEvery, MaxRetries: 3,
				Dir: ckDir, OnCheckpoint: hook,
			})
			if err != nil {
				log.Fatal(err)
			}
			if elapsed := time.Since(t0).Seconds(); elapsed > 0 {
				sps = float64(rep.Steps) / elapsed
			}
		})
		return sps
	}
	// Interleave the arms — baseline, ingest, baseline, ... — so slow
	// scheduler or thermal drift hits both equally, and take the best lap of
	// each; a GC between laps keeps one arm's garbage off the other's clock.
	const laps = 5
	tmp, err := os.MkdirTemp("", "bench7-live-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(tmp)
	for i := 0; i < laps; i++ {
		runtime.GC()
		ckDir := filepath.Join(tmp, fmt.Sprintf("ck-base-%d", i))
		if sps := lap(nil, ckDir); sps > res.BaselineStepsPS {
			res.BaselineStepsPS = sps
		}

		runtime.GC()
		storeDir := filepath.Join(tmp, fmt.Sprintf("store-%d", i))
		w, err := statestore.Create(storeDir, 0, nil)
		if err != nil {
			log.Fatal(err)
		}
		in := statestore.NewIngester(w, 4, nil)
		sps := lap(core.ServeCaptureHook(in), filepath.Join(tmp, fmt.Sprintf("ck-ingest-%d", i)))
		if err := in.Close(); err != nil {
			log.Fatal(err)
		}
		if sps > res.IngestStepsPS {
			res.IngestStepsPS = sps
			res.IngestSnapshots = w.Snapshots()
			res.IngestDropped = in.Dropped()
		}
		w.Close()
	}
	if res.BaselineStepsPS > 0 {
		res.IngestRatio = res.IngestStepsPS / res.BaselineStepsPS
	}
}

// validate re-reads the written record with strict field checking and
// enforces the acceptance gates `make check` relies on.
func validate(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var rec result
	if err := dec.Decode(&rec); err != nil {
		return err
	}
	switch {
	case rec.Name == "" || rec.Config == "" || rec.Timestamp == "":
		return fmt.Errorf("missing identification fields")
	case rec.Snapshots < 2 || rec.FieldCells < 1:
		return fmt.Errorf("archive too small: %d snapshots, %d cells", rec.Snapshots, rec.FieldCells)
	case rec.StoredBytes <= 0 || rec.RawBytes <= rec.StoredBytes:
		return fmt.Errorf("quantized store (%d B) not smaller than raw (%d B)", rec.StoredBytes, rec.RawBytes)
	case rec.PointQueries < 1:
		return fmt.Errorf("no point queries completed")
	case rec.AnalogChecks < 9:
		return fmt.Errorf("only %d analog cross-checks ran", rec.AnalogChecks)
	case rec.IngestSnapshots < 1:
		return fmt.Errorf("live ingest committed no snapshots")
	}
	// Gate 1: concurrent point-query throughput.
	if rec.PointQPS < minPointQPS {
		return fmt.Errorf("point throughput %.0f q/s below the %d q/s gate", rec.PointQPS, minPointQPS)
	}
	// Gate 2: the staged analog pipeline is exact against brute force.
	if !rec.AnalogExact {
		return fmt.Errorf("analog pipeline disagrees with the brute-force reference")
	}
	// Gate 3: live ingest must not perturb the step loop. A timing ratio
	// only holds statistically over a long enough window; short smoke runs
	// check the schema and exactness gates only.
	if rec.Steps >= 30 && rec.IngestRatio < ingestTolerance {
		return fmt.Errorf("live-ingest run at %.3fx of baseline throughput, below the %.2f gate",
			rec.IngestRatio, ingestTolerance)
	}
	return nil
}
