// Command perfbench is the repository benchmark.  It drives the public
// eos API on the file backend with a seeded closed-loop workload,
// checks every output against an in-memory oracle, and prints its
// metrics, one per line, followed by a JSON summary as the last line.
//
//	go run . -workload edit_durable -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it reports end-to-end metrics; with -trace 1 the
// volumes sit behind a timing wrapper, requests and public calls are
// recorded as spans, and it reports per-layer metrics instead.  See
// README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/eosdb/eos"
)

// workload is one seeded request mix.
type workload interface {
	spec() storeSpec
	clients() int
	// primary names the request kind that ops, latency and the per-op
	// normalisation of the layer counts refer to.
	primary() string
	// populate fills a freshly formatted store and resets the oracle.
	populate(b *bench, st *store) error
	// run is one closed-loop client; it returns at the deadline.
	run(b *bench, st *store, client int, deadline time.Time, r *recorder)
	// tail checkpoints, then runs a fixed number of commits so the kill
	// image always carries the same amount of log.
	tail(b *bench, st *store, r *recorder) error
	// verify compares every object in s with the oracle.
	verify(s *eos.Store) error
	liveBytes() int64
	notes() []string
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "edit_durable":
		return &editDurable{seed: seed}, nil
	case "read_fragmented":
		return &readFragmented{seed: seed}, nil
	case "ingest_churn":
		return &ingestChurn{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (edit_durable, read_fragmented, ingest_churn)", name)
}

const (
	// setup_s is the median of at least minSetups and at most maxSetups
	// full set-ups: more of them while they have taken less than
	// setupBudget in all, so a cheap set-up is repeated more often.
	minSetups      = 5
	maxSetups      = 9
	setupBudget    = 5 * time.Second
	recoverRepeats = 5 // recover_ms is the median over this many kill-image copies
	warmup         = 2 * time.Second
	minCheckpoints = 5 // checkpoint_p50_ms has at least this many samples
)

type bench struct {
	name string
	w    workload
	spec storeSpec
	tr   *tracer // nil unless -trace 1
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workloadName := flag.String("workload", "edit_durable", "edit_durable, read_fragmented or ingest_churn")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1: per-layer metrics from a traced run")
	dir := flag.String("dir", filepath.Join(".bench_build", "run"), "scratch directory for the stores")
	spans := flag.String("spans", "", "with -trace 1, write the recorded spans to this file")
	flag.Parse()

	w, err := newWorkload(*workloadName, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	b := &bench{name: *workloadName, w: w, spec: w.spec()}
	if *trace == 1 {
		b.tr = newTracer(b.spec.pageSize)
	}
	workDir := filepath.Join(*dir, fmt.Sprintf("%s-%d", *workloadName, os.Getpid()))
	sum, err := b.run(workDir, time.Duration(*seconds*float64(time.Second)))
	if rerr := os.RemoveAll(workDir); err == nil && rerr != nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if b.tr != nil && *spans != "" {
		if err := b.tr.writeSpans(*spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
			os.Exit(1)
		}
		fmt.Println("spans written to", *spans)
	}
	out, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !sum.Correct {
		os.Exit(1)
	}
}

// outcome is everything one run measured, before it is turned into
// metrics.
type outcome struct {
	setups    []float64 // seconds
	recovers  []int64   // ns
	logRead   []int64   // log bytes read by each traced recovery
	tot       *recorder // measured phase
	epi       *recorder // checkpoints, tail and recoveries after it
	s0, s1    sample
	free0     int
	free1     int
	live      int64
	segs      float64 // mean segments per object at the end of the phase
	pendMax   int64
	countsOK  bool
	countsMsg string
}

// run sets up, measures, and checks one workload; the error is for
// failures that leave no result (set-up or the harness itself).
func (b *bench) run(dir string, d time.Duration) (summary, error) {
	w, spec := b.w, b.spec
	pool, threshold := spec.opts.PoolFrames, spec.opts.Threshold
	if pool == 0 {
		pool = 256 // the store's defaults
	}
	if threshold == 0 {
		threshold = 8
	}
	fmt.Printf("config workload=%s page_size=%d data_MB=%d log_MB=%d direct_io=%v pool_frames=%d pool_MB=%.2f catalog_pages=%d threshold=%d clients=%d closed_loop=true\n",
		b.name, spec.pageSize, int64(spec.dataPages)*int64(spec.pageSize)/mb, int64(spec.logPages)*int64(spec.pageSize)/mb,
		spec.direct, pool, float64(pool*spec.pageSize)/mb, spec.opts.CatalogPages, threshold, w.clients())
	for _, n := range w.notes() {
		fmt.Println("config", n)
	}

	var o outcome
	st, err := b.setup(dir, 0, &o)
	if err != nil {
		return summary{}, err
	}
	fmt.Printf("config live_MB=%.2f live_to_pool=%.1f warmup_s=%.0f\n", float64(w.liveBytes())/mb,
		float64(w.liveBytes())/float64(pool*spec.pageSize), warmup.Seconds())

	// Warm-up: the same clients, unmeasured, so the pool, the page cache
	// and the device settle after the set-up's writes.
	o.epi = newRecorder()
	for _, r := range b.clients(st, time.Now().Add(warmup)) {
		o.epi.merge(r)
	}

	// Measured phase.
	stop := make(chan struct{})
	var aux sync.WaitGroup
	if b.tr != nil {
		b.tr.start()
		aux.Add(1)
		go func() { defer aux.Done(); o.pendMax = samplePending(st.s, stop) }()
	}
	o.s0 = b.sample(st)
	recs := b.clients(st, o.s0.at.Add(d))
	o.s1 = b.sample(st)
	close(stop)
	aux.Wait()
	if b.tr != nil {
		b.tr.stop()
	}
	o.tot = newRecorder()
	for _, r := range recs {
		o.tot.merge(r)
	}
	if o.free1, err = st.s.FreePages(); err != nil {
		return summary{}, err
	}
	o.live = w.liveBytes()
	if b.tr != nil {
		if o.segs, err = meanSegments(st.s); err != nil {
			return summary{}, err
		}
		o.countsOK, o.countsMsg = countsMatch(o.s0, o.s1)
	}

	// Epilogue: the live store must match the oracle, then checkpoints,
	// the fixed tail, a kill image, and timed recoveries of its copies.
	if err := w.verify(st.s); err != nil {
		o.epi.mismatch(fmt.Errorf("live store: %w", err))
	}
	if err := st.s.Check(); err != nil {
		o.epi.mismatch(fmt.Errorf("live store: Check: %w", err))
	}
	for len(o.tot.lat["checkpoint"])+len(o.epi.lat["checkpoint"]) < minCheckpoints {
		if err := b.checkpoint(o.epi, st.s); err != nil {
			break
		}
	}
	if err := w.tail(b, st, o.epi); err != nil {
		o.epi.fail(fmt.Errorf("tail: %w", err))
	}
	image := filepath.Join(dir, "kill")
	if err := copyDir(st.dir, image); err != nil {
		return summary{}, err
	}
	if err := st.close(); err != nil {
		o.epi.fail(fmt.Errorf("close: %w", err))
	}
	for i := 0; i < recoverRepeats; i++ {
		if err := b.recover(image, filepath.Join(dir, fmt.Sprintf("recover%d", i)), i == 0, &o); err != nil {
			return summary{}, err
		}
	}

	// The remaining set-ups run last, so their writes do not disturb the
	// measured phase.
	for i := 1; i < maxSetups && (i < minSetups || setupTotal(o.setups) < setupBudget); i++ {
		st, err := b.setup(dir, i, &o)
		if err != nil {
			return summary{}, err
		}
		if err := st.close(); err != nil {
			return summary{}, err
		}
		if err := os.RemoveAll(st.dir); err != nil {
			return summary{}, err
		}
	}
	return b.report(&o), nil
}

// setupTotal is the time the set-ups so far took.
func setupTotal(setups []float64) time.Duration {
	var t float64
	for _, s := range setups {
		t += s
	}
	return time.Duration(t * float64(time.Second))
}

// setup formats and populates store number i under dir and checkpoints
// it, adding its duration to o.setups.
func (b *bench) setup(dir string, i int, o *outcome) (*store, error) {
	t0 := time.Now()
	st, err := b.create(filepath.Join(dir, fmt.Sprintf("setup%d", i)))
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	if o.free0, err = st.s.FreePages(); err != nil {
		return nil, err
	}
	if err := b.w.populate(b, st); err != nil {
		return nil, fmt.Errorf("setup: populate: %w", err)
	}
	if err := st.s.Checkpoint(); err != nil {
		return nil, fmt.Errorf("setup: checkpoint: %w", err)
	}
	o.setups = append(o.setups, time.Since(t0).Seconds())
	return st, nil
}

// clients runs the workload's closed-loop clients until deadline and
// returns their tallies.
func (b *bench) clients(st *store, deadline time.Time) []*recorder {
	recs := make([]*recorder, b.w.clients())
	var wg sync.WaitGroup
	for c := range recs {
		recs[c] = newRecorder()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			b.w.run(b, st, c, deadline, recs[c])
		}(c)
	}
	wg.Wait()
	return recs
}

// recover copies the kill image to dir, times opening it with crash
// recovery, and — when check is set — verifies the recovered store
// against the oracle: every acknowledged commit must have survived.
// When check is set, a kill image that cannot be recovered fails the
// durability check.
// Directories are removed only at the end of the run, so no file
// deletion's journal traffic runs into a timed recovery.
func (b *bench) recover(image, dir string, check bool, o *outcome) error {
	if err := copyDir(image, dir); err != nil {
		return err
	}
	op := b.tr.begin(-1, "eos.openat", true)
	t0 := time.Now()
	rs, err := b.open(dir)
	ns := int64(time.Since(t0))
	b.tr.end(op)
	o.epi.attempted++
	if err != nil {
		err = fmt.Errorf("recover: %w", err)
		o.epi.fail(err)
		if check {
			o.epi.mismatch(err)
		}
		return nil
	}
	o.recovers = append(o.recovers, ns)
	if rs.tlog != nil {
		o.logRead = append(o.logRead, rs.tlog.counters().PagesRead*int64(b.spec.pageSize))
	}
	if check {
		if err := b.w.verify(rs.s); err != nil {
			o.epi.mismatch(fmt.Errorf("recovered store: %w", err))
		}
		if err := rs.s.Check(); err != nil {
			o.epi.mismatch(fmt.Errorf("recovered store: Check: %w", err))
		}
	}
	if err := rs.close(); err != nil {
		o.epi.fail(fmt.Errorf("close recovered: %w", err))
	}
	return nil
}

// samplePending polls the epoch backlog until stop closes and returns
// the largest value seen.
func samplePending(s *eos.Store, stop <-chan struct{}) int64 {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	var max int64
	for {
		if p := s.Stats().Snap.PendingPages; p > max {
			max = p
		}
		select {
		case <-stop:
			return max
		case <-tick.C:
		}
	}
}

// meanSegments is the mean leaf-segment count over every object.
func meanSegments(s *eos.Store) (float64, error) {
	names := s.List()
	if len(names) == 0 {
		return 0, nil
	}
	var total int
	for _, n := range names {
		o, err := s.Open(n)
		if err != nil {
			return 0, err
		}
		u, err := o.Usage()
		if err != nil {
			return 0, err
		}
		total += u.SegmentCount
	}
	return float64(total) / float64(len(names)), nil
}

// countsMatch checks the timing wrapper against the volumes' own
// statistics over the measured phase: Stats().Disk for the data volume
// and the log volume's Stats.
func countsMatch(s0, s1 sample) (bool, string) {
	dw, ds := s1.dataW.sub(s0.dataW), s1.st.Disk.Sub(s0.st.Disk)
	lw, ls := s1.logW.sub(s0.logW), s1.log.Sub(s0.log)
	if !dw.matches(ds) {
		return false, fmt.Sprintf("data volume: wrapper %+v, Stats().Disk delta %+v", dw, ds)
	}
	if !lw.matches(ls) {
		return false, fmt.Sprintf("log volume: wrapper %+v, Stats delta %+v", lw, ls)
	}
	return true, fmt.Sprintf("data reads=%d writes=%d syncs=%d, log writes=%d syncs=%d",
		ds.Reads, ds.Writes, ds.Syncs, ls.Writes, ls.Syncs)
}

// report turns an outcome into printed metrics and the JSON summary.
func (b *bench) report(o *outcome) summary {
	sum := summary{Correct: true, Metrics: map[string]metric{}}
	sum.Attempted = o.tot.attempted + o.epi.attempted
	sum.Failed = o.tot.failed + o.epi.failed
	for _, err := range append(o.tot.errs, o.epi.errs...) {
		fmt.Println("failed:", err)
	}
	for _, err := range append(o.tot.mismatches, o.epi.mismatches...) {
		fmt.Println("MISMATCH:", err)
		sum.Correct = false
	}
	if b.tr != nil && !o.countsOK {
		fmt.Println("MISMATCH: wrapper counts differ from volume stats:", o.countsMsg)
		sum.Correct = false
	}
	var ms map[string]metric
	if b.tr == nil {
		ms = b.endToEnd(o)
	} else {
		ms = b.perLayer(o)
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-34s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
	sum.Metrics = ms
	return sum
}

// endToEnd computes the metrics BENCHMARK.json lists as end_to_end,
// which every workload reports, and prints the workload's own view of
// them under the names the metric table of README.md uses.
func (b *bench) endToEnd(o *outcome) map[string]metric {
	ps := int64(b.spec.pageSize)
	secs := o.s1.at.Sub(o.s0.at).Seconds()
	prim := o.tot.lat[b.w.primary()]
	user := float64(o.tot.userRead + o.tot.userWritten)
	ds, ls := o.s1.st.Disk.Sub(o.s0.st.Disk), o.s1.log.Sub(o.s0.log)
	devBytes := float64((ds.PagesRead + ds.PagesWritten + ls.PagesRead + ls.PagesWritten) * ps)
	ckpt := append(append([]int64(nil), o.tot.lat["checkpoint"]...), o.epi.lat["checkpoint"]...)
	recov := medianF(nsToMs(o.recovers))
	m := map[string]metric{
		"setup_s":        {medianF(o.setups), "s"},
		"op_p50_ms":      {quantile(prim, 0.50) / nsPerMs, "ms"},
		"io_amp":         {ratio(devBytes, user), "B/B"},
		"dev_ios_per_op": {ratio(float64(ds.Reads+ds.Writes+ls.Reads+ls.Writes), float64(len(prim))), "1/op"},
		"space_amp":      {ratio(float64(int64(o.free0-o.free1)*ps), float64(o.live)), "B/B"},
	}

	// The workload's own names for these (printed, not in the summary).
	view := func(name string, v float64, unit string) { fmt.Printf("view   %-34s %14.6g %s\n", name, v, unit) }
	fmt.Printf("view   primary request %q: %d completed in %.3f s\n", b.w.primary(), len(prim), secs)
	view("ops_per_s", perSecond(o.tot.done[b.w.primary()], o.s0.at, o.s1.at), "1/s")
	if lat := o.tot.lat["txn"]; len(lat) > 0 {
		view("txn_per_s", float64(len(lat))/secs, "1/s")
		view("txn_p50_ms", quantile(lat, 0.5)/nsPerMs, "ms")
		view("txn_p99_ms", quantile(lat, 0.99)/nsPerMs, "ms")
	}
	if lat := o.tot.lat["read"]; len(lat) > 0 {
		view("read_p50_us", quantile(lat, 0.5)/nsPerUs, "us")
		view("read_p99_us", quantile(lat, 0.99)/nsPerUs, "us")
	}
	if lat := o.tot.lat["scan"]; len(lat) > 0 {
		var t int64
		for _, ns := range lat {
			t += ns
		}
		view("scan_MBps", float64(len(lat))*readObjSize/mb/(float64(t)/1e9), "MB/s") // scans read whole objects
	}
	if lat := o.tot.lat["ingest"]; len(lat) > 0 {
		view("ingest_MBps", float64(o.tot.userWritten)/mb/secs, "MB/s")
		view("ingest_p50_ms", quantile(lat, 0.5)/nsPerMs, "ms")
	}
	fmt.Printf("view   set-up times (s):")
	for _, t := range o.setups {
		fmt.Printf(" %.3f", t)
	}
	fmt.Println()
	view("checkpoint_p50_ms", quantile(ckpt, 0.5)/nsPerMs, "ms")
	view("recover_ms", recov, "ms")
	if o.tot.userWritten > 0 {
		wr := float64((ds.PagesWritten + ls.PagesWritten) * ps)
		view("write_amp", wr/float64(o.tot.userWritten), "B/B")
	}
	view("space_amp", m["space_amp"].Value, "B/B")
	all := o.tot.attempted + o.epi.attempted
	view("err_ratio", ratio(float64(o.tot.failed+o.epi.failed), float64(all)), "ratio")
	return m
}

// perSecond is the median, over the whole seconds of [from, to), of the
// number of completions in each: a throughput that a stall of a second
// or two does not move.
func perSecond(done []time.Time, from, to time.Time) float64 {
	counts := make([]float64, int(to.Sub(from)/time.Second))
	if len(counts) == 0 {
		return float64(len(done)) / to.Sub(from).Seconds()
	}
	for _, t := range done {
		if i := int(t.Sub(from) / time.Second); i < len(counts) {
			counts[i]++
		}
	}
	return medianF(counts)
}

func nsToMs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / nsPerMs
	}
	return out
}

// perLayer computes the per_layer metrics of BENCHMARK.json from the
// traced run.  Counts and device times are per primary request.
func (b *bench) perLayer(o *outcome) map[string]metric {
	tr := b.tr
	primKind := b.w.primary()
	ops := float64(len(o.tot.lat[primKind]))
	per := func(v int64) float64 { return ratio(float64(v), ops) }
	ps := int64(b.spec.pageSize)
	st := o.s1.st
	st0 := o.s0.st
	dw, lw := o.s1.dataW.sub(o.s0.dataW), o.s1.logW.sub(o.s0.logW)
	p50us := func(name string) float64 { return quantile(tr.times(name).dur, 0.5) / nsPerUs }

	var txnops []int64
	for _, n := range []string{"eos.replace", "eos.insert", "eos.delete", "eos.append", "eos.read", "eos.create", "eos.destroy"} {
		txnops = append(txnops, tr.times(n).dur...)
	}
	readCalls := len(tr.times("eos.readat").dur) + len(tr.times("eos.read").dur) + len(tr.times("eos.scan").dur)
	traced := tr.times("req." + primKind)
	pool, pool0 := st.Pool, st0.Pool
	wal := st.WAL
	wal.Appends -= st0.WAL.Appends
	wal.Forces -= st0.WAL.Forces
	wal.ForceNoops -= st0.WAL.ForceNoops
	wal.Piggybacks -= st0.WAL.Piggybacks
	wal.LeaderForces -= st0.WAL.LeaderForces
	wal.FlushedBytes -= st0.WAL.FlushedBytes
	lob, lob0 := st.LOB, st0.LOB
	addLOB(&lob, o.tot.txnLOB)
	bud, bud0 := st.Buddy, st0.Buddy
	hits, misses := pool.Hits-pool0.Hits, pool.Misses-pool0.Misses
	visited, skipped := bud.SpacesVisited-bud0.SpacesVisited, bud.SpacesSkipped-bud0.SpacesSkipped

	unN, unT := tr.unattributed()
	fmt.Printf("trace  %d %q requests traced; device counts vs volume stats: %s\n", len(traced.dur), primKind, o.countsMsg)
	fmt.Printf("trace  self time per %q request (p50): eos %.1f us, disk.data %.1f us, disk.log %.1f us\n",
		primKind, quantile(traced.self, 0.5)/nsPerUs, quantile(traced.dataNs, 0.5)/nsPerUs, quantile(traced.logNs, 0.5)/nsPerUs)
	fmt.Printf("trace  device calls charged to no operation: %d (%.3f ms)\n", unN, float64(unT)/nsPerMs)
	fmt.Printf("trace  tracing overhead: compare trace.op_p50_ms (%.4f ms) with op_p50_ms of a --trace 0 run\n",
		quantile(o.tot.lat[primKind], 0.5)/nsPerMs)

	return map[string]metric{
		"eos.commit_us.p50":     {p50us("eos.commit"), "us"},
		"eos.txnop_us.p50":      {quantile(txnops, 0.5) / nsPerUs, "us"},
		"eos.replace_us.p50":    {p50us("eos.replace"), "us"},
		"eos.readat_us.p50":     {p50us("eos.readat"), "us"},
		"eos.scan_us.p50":       {p50us("eos.scan"), "us"},
		"eos.checkpoint_ms.p50": {quantile(tr.times("eos.checkpoint").dur, 0.5) / nsPerMs, "ms"},
		"eos.openat_ms":         {medianF(nsToMs(o.recovers)), "ms"},
		"eos.self_us.p50":       {quantile(traced.self, 0.5) / nsPerUs, "us"},
		"disk.data.self_us.p50": {quantile(traced.dataNs, 0.5) / nsPerUs, "us"},
		"disk.log.self_us.p50":  {quantile(traced.logNs, 0.5) / nsPerUs, "us"},
		"trace.op_p50_ms":       {quantile(o.tot.lat[primKind], 0.5) / nsPerMs, "ms"},

		"disk.data.reads":                 {per(dw.Reads), "1/op"},
		"disk.data.pages_read":            {per(dw.PagesRead), "1/op"},
		"disk.data.read_us":               {per(dw.ReadNs) / nsPerUs, "us/op"},
		"disk.data.writes":                {per(dw.Writes), "1/op"},
		"disk.data.pages_written":         {per(dw.PagesWritten), "1/op"},
		"disk.data.run_writes":            {per(dw.RunWrites), "1/op"},
		"disk.data.write_us":              {per(dw.WriteNs) / nsPerUs, "us/op"},
		"disk.data.syncs":                 {per(dw.Syncs), "1/op"},
		"disk.data.sync_us":               {per(dw.SyncNs) / nsPerUs, "us/op"},
		"disk.data.catalog_pages_written": {per(dw.MetaPagesWritten), "1/op"},
		"disk.data.reads_per_op":          {ratio(float64(dw.Reads), float64(readCalls)), "1/call"},

		"disk.log.writes":               {per(lw.Writes), "1/op"},
		"disk.log.bytes_written":        {per(lw.PagesWritten * ps), "B/op"},
		"disk.log.write_us":             {per(lw.WriteNs) / nsPerUs, "us/op"},
		"disk.log.syncs":                {per(lw.Syncs), "1/op"},
		"disk.log.sync_us":              {per(lw.SyncNs) / nsPerUs, "us/op"},
		"disk.log.bytes_read":           {medianF(int64sToF(o.logRead)), "B/recovery"},
		"disk.log.bytes_per_checkpoint": {quantile(tr.times("eos.checkpoint").logBytes, 0.5), "B/ckpt"},

		"wal.appends":         {per(wal.Appends), "1/op"},
		"wal.forces":          {per(wal.Forces), "1/op"},
		"wal.force_noops":     {per(wal.ForceNoops), "1/op"},
		"wal.piggybacks":      {per(wal.Piggybacks), "1/op"},
		"wal.leader_forces":   {per(wal.LeaderForces), "1/op"},
		"wal.flushed_bytes":   {per(wal.FlushedBytes), "B/op"},
		"wal.piggyback_ratio": {ratio(float64(wal.Piggybacks), float64(wal.Forces)), "ratio"},

		"buffer.hits":        {per(hits), "1/op"},
		"buffer.misses":      {per(misses), "1/op"},
		"buffer.hit_rate":    {ratio(float64(hits), float64(hits+misses)), "ratio"},
		"buffer.evictions":   {per(pool.Evictions - pool0.Evictions), "1/op"},
		"buffer.flushes":     {per(pool.Flushes - pool0.Flushes), "1/op"},
		"buffer.flush_skips": {per(pool.FlushSkips - pool0.FlushSkips), "1/op"},

		"lob.segments_allocated":   {per(lob.SegmentsAllocated - lob0.SegmentsAllocated), "1/op"},
		"lob.segments_freed":       {per(lob.SegmentsFreed - lob0.SegmentsFreed), "1/op"},
		"lob.bytes_reshuffled":     {per(lob.BytesReshuffled - lob0.BytesReshuffled), "B/op"},
		"lob.pages_reshuffled":     {per(lob.PagesReshuffled - lob0.PagesReshuffled), "1/op"},
		"lob.node_splits":          {per(lob.NodeSplits - lob0.NodeSplits), "1/op"},
		"lob.node_merges":          {per(lob.NodeMerges - lob0.NodeMerges), "1/op"},
		"lob.shadowed_index_pages": {per(lob.ShadowedIndexPages - lob0.ShadowedIndexPages), "1/op"},
		"lob.segments_per_object":  {o.segs, "count"},

		"buddy.allocs":          {per(bud.Allocs - bud0.Allocs), "1/op"},
		"buddy.frees":           {per(bud.Frees - bud0.Frees), "1/op"},
		"buddy.spaces_visited":  {per(visited), "1/op"},
		"buddy.spaces_skipped":  {per(skipped), "1/op"},
		"buddy.failed_attempts": {per(bud.FailedAttempts - bud0.FailedAttempts), "1/op"},
		"buddy.skip_ratio":      {ratio(float64(skipped), float64(visited+skipped)), "ratio"},

		"txn.epoch_advances":    {per(int64(st.Snap.EpochAdvances - st0.Snap.EpochAdvances)), "1/op"},
		"txn.retired_pages":     {per(int64(st.Snap.RetiredPages - st0.Snap.RetiredPages)), "1/op"},
		"txn.pending_pages_max": {float64(o.pendMax), "count"},
	}
}

func int64sToF(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = float64(v)
	}
	return out
}
