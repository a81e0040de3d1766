package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"existdlog/internal/ast"
	"existdlog/internal/engine"
	"existdlog/internal/failpoint"
	"existdlog/internal/obs"
	"existdlog/internal/wal"
)

// ErrDegraded marks mutations refused while the store is in degraded
// read-only mode: a WAL append or fsync failed (disk full, I/O error),
// so writes cannot be made durable. Queries keep serving from the last
// installed version; a background probe re-enables writes once the log
// accepts a durable frame again.
var ErrDegraded = errors.New("store is degraded (read-only): the write-ahead log is failing")

// Store is the versioned copy-on-write fact store behind the service's
// write path. Readers pin an immutable Version with one atomic load and
// are never blocked: a pinned version's databases are frozen forever.
// Writers serialize through a single applier goroutine, which drains
// every mutation waiting in its queue into one batch — one WAL group
// commit, one incremental maintenance pass, one atomically-installed
// successor version — so bursts of small writes amortize both the fsync
// and the fixpoint work.
//
// Durability (optional, enabled by a WAL directory): a mutation is
// acknowledged only after its record is fsync'd in the append-only log
// AND applied, so every acknowledged write survives SIGKILL; startup
// replays checkpoint + log and re-materializes, reproducing the exact
// fixpoint. Maintenance uses UpdateContext/RetractContext against the
// previous version's materialization; any retraction error or partial
// result is discarded — per retract.go, a partial DRed result
// over-approximates and is unsound — and the applier falls back to a
// full re-evaluation of the new base state instead.
type Store struct {
	prog *ast.Program
	opt  engine.Options
	reg  *obs.Registry
	log  *slog.Logger
	now  func() time.Time

	// incremental is false for programs Update/Retract reject outright
	// (negation); their maintenance is a full Eval per batch.
	incremental bool
	// matEnabled gates materialization. It starts true and flips off
	// permanently (applier-only state) the first time the bounded
	// fixpoint fails to complete — a program that diverges without a
	// goal, e.g. an unbounded counter. The store then maintains only the
	// base facts, and every derived query takes the evaluated read path
	// (per-goal evaluation with its own bounds) instead of reading Mat.
	matEnabled bool

	cur atomic.Pointer[Version]

	wlog      *wal.Log // nil when the store is memory-only
	snapPath  string
	snapEvery int
	sinceSnap int

	// Degraded read-only mode: set when a WAL append/sync fails, cleared
	// when a probe write succeeds. Mutate fails fast while set; queries
	// never look at it. The cause string feeds the readiness probe.
	degraded      atomic.Bool
	degradedMu    sync.Mutex
	degradedCause string
	probeEvery    time.Duration

	// Idempotency dedup window: client-supplied mutation IDs already
	// applied, mapped to an including version's sequence. Owned by the
	// applier goroutine (and by NewStore's replay, which runs before the
	// applier starts), so it needs no lock. Bounded FIFO: seenOrder
	// remembers insertion order for eviction.
	seen      map[string]uint64
	seenOrder []string

	reqs      chan *mutReq
	quit      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// Version is one immutable state of the store: the base facts, the
// materialized fixpoint of the served program over them, and the
// sequence number of the last mutation included. Queries on derived
// predicates are answered by selection on Mat when it is set. Mat is
// nil until the first write materializes it — lazily, so start-up
// never pays for a full fixpoint and reads before the first write
// evaluate per goal — and stays nil for programs whose bounded
// materialization cannot complete.
type Version struct {
	Seq uint64
	EDB *engine.Database
	Mat *engine.Result
}

// Mutation is one write request: add (OpUpdate) or remove (OpRetract)
// the given base facts. ID, when non-empty, is an idempotency key: a
// mutation whose ID was already applied (within the dedup window, which
// WAL replay rebuilds across restarts) acknowledges the original's
// sequence without applying again — the contract that makes a retried
// ack-lost write safe.
type Mutation struct {
	Op    wal.Op
	Facts []wal.Fact
	ID    string
	// Req and Trace identify the originating request ("m7") and its
	// trace id for end-to-end correlation: they ride into the WAL record
	// and, if this mutation's batch breaks the log, into the degraded
	// cause reported by /readyz.
	Req   string
	Trace string
}

type mutReq struct {
	m Mutation
	// enq is when the mutation entered the applier queue (real monotonic
	// clock — span math must never see the server's injectable fake);
	// the queue-to-applier handoff span is enq → timing.dequeued.
	enq time.Time
	ack chan mutAck // buffered; the applier never blocks on a waiter
}

type mutAck struct {
	seq uint64
	err error
	// timing is the shared stage breakdown of the batch that carried
	// this mutation (nil on failure paths that never started applying).
	timing *batchTiming
}

// batchTiming is the applier-side stage clock of one batch, shared by
// every mutation the batch acknowledged. All stamps are real time.Now
// wall/monotonic times; the request handler converts them into child
// spans of its "store" span.
type batchTiming struct {
	dequeued  time.Time // applier picked the batch up
	applied   time.Time // maintenance passes done
	walDone   time.Time // records appended (zero when memory-only)
	synced    time.Time // group-commit fsync done (zero when memory-only)
	installed time.Time // new version installed and checkpoint policy run
	size      int       // mutations in the batch (coalescing visibility)
}

// StoreConfig configures NewStore.
type StoreConfig struct {
	// WALDir enables durability: the mutation log and checkpoints live
	// here. Empty runs the store in memory only.
	WALDir string
	// SnapshotEvery checkpoints the base facts after this many logged
	// mutations, then truncates the log. 0 never checkpoints (the log
	// grows until restart).
	SnapshotEvery int
	// MaxFacts bounds the store's materialized fixpoint (0 = unlimited);
	// hitting it disables materialization rather than installing an
	// incomplete fixpoint.
	MaxFacts int
	// ReorderJoins evaluates maintenance passes (materialization,
	// incremental Update/Retract) with the runtime join planner.
	ReorderJoins bool
	// ProbeEvery is how often a degraded store probes the log for
	// recovery (0 = 500ms). Tests shorten it.
	ProbeEvery time.Duration
	Registry   *obs.Registry
	Logger     *slog.Logger
	Now        func() time.Time
}

const (
	walFile  = "wal.log"
	snapFile = "snapshot.db"
	// maxBatch bounds how many queued mutations one maintenance pass
	// absorbs, so acks are never starved behind an unbounded drain.
	maxBatch = 256
	// idemWindow bounds the idempotency dedup map: the oldest remembered
	// ID is evicted past this many. A retry storm resolves within
	// seconds; the window only needs to outlive the client's retry
	// horizon, not the process.
	idemWindow = 8192
)

// NewStore recovers the durable state (checkpoint, then newer log
// records) on top of the program's own base facts, materializes the
// fixpoint, and starts the applier.
func NewStore(prog *ast.Program, edb *engine.Database, cfg StoreConfig) (*Store, error) {
	s := &Store{
		prog: prog,
		// Full fixpoint: no cut, so Update/Retract see every derivation.
		// MaxFacts keeps a divergent program from hanging the applier;
		// a partial result is never installed (matEnabled flips instead).
		opt:         engine.Options{MaxFacts: cfg.MaxFacts, ReorderJoins: cfg.ReorderJoins},
		reg:         cfg.Registry,
		log:         cfg.Logger,
		now:         cfg.Now,
		incremental: !prog.HasNegation(),
		matEnabled:  true,
		snapEvery:   cfg.SnapshotEvery,
		probeEvery:  cfg.ProbeEvery,
		seen:        make(map[string]uint64),
		reqs:        make(chan *mutReq, maxBatch),
		quit:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	if s.probeEvery <= 0 {
		s.probeEvery = 500 * time.Millisecond
	}
	if s.log == nil {
		s.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if s.now == nil {
		s.now = time.Now
	}
	var seq uint64
	if cfg.WALDir != "" {
		if err := os.MkdirAll(cfg.WALDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: wal dir: %w", err)
		}
		s.snapPath = filepath.Join(cfg.WALDir, snapFile)
		snapSeq, snapDB, err := wal.ReadSnapshotFile(s.snapPath)
		switch {
		case err == nil:
			// The checkpoint is the whole base state at snapSeq; the
			// program's source facts are already inside it.
			edb = snapDB
			seq = snapSeq
		case errors.Is(err, os.ErrNotExist):
			// First start: the program's own facts are the base state.
		default:
			return nil, err
		}
		wlog, recs, err := wal.Open(filepath.Join(cfg.WALDir, walFile))
		if err != nil {
			return nil, err
		}
		s.wlog = wlog
		replayed := 0
		for _, rec := range recs {
			if rec.Op == wal.OpProbe {
				continue // disk-health probe, carries no state
			}
			if rec.Seq <= seq {
				continue // already inside the checkpoint
			}
			if err := applyToEDB(edb, rec.Op, rec.Facts); err != nil {
				wlog.Close()
				return nil, fmt.Errorf("server: wal replay seq %d: %w", rec.Seq, err)
			}
			seq = rec.Seq
			replayed++
			s.rememberID(rec.ID, rec.Seq)
		}
		s.sinceSnap = replayed
		if replayed > 0 || snapSeq > 0 {
			s.log.LogAttrs(context.Background(), slog.LevelInfo, "store recovered",
				slog.Uint64("snapshot_seq", snapSeq),
				slog.Int("wal_records", replayed),
				slog.Uint64("seq", seq))
		}
	}
	s.install(&Version{Seq: seq, EDB: edb})
	go s.applier()
	return s, nil
}

// Current returns the store's latest immutable version.
func (s *Store) Current() *Version { return s.cur.Load() }

// Degraded reports whether the store is in degraded read-only mode and,
// if so, what put it there (the readiness probe's reason string).
func (s *Store) Degraded() (bool, string) {
	if !s.degraded.Load() {
		return false, ""
	}
	s.degradedMu.Lock()
	defer s.degradedMu.Unlock()
	return true, s.degradedCause
}

// enterDegraded flips the store read-only: mutations fail fast, the
// degraded gauge rises, and the applier starts probing for recovery.
// req and trace (both optional) identify the mutation whose batch broke
// the log; they are baked into the cause string so 503 bodies and
// /readyz output point straight at the flight-recorder entry of the
// triggering request.
func (s *Store) enterDegraded(cause error, req, trace string) {
	if s.degraded.Swap(true) {
		return
	}
	text := cause.Error()
	if req != "" {
		text = fmt.Sprintf("%s (triggered by request %s", text, req)
		if trace != "" {
			text += " trace " + trace
		}
		text += ")"
	}
	s.degradedMu.Lock()
	s.degradedCause = text
	s.degradedMu.Unlock()
	if s.reg != nil {
		s.reg.SetDegraded(true)
	}
	s.log.LogAttrs(context.Background(), slog.LevelError,
		"store degraded: serving reads only until the log recovers",
		slog.String("cause", text),
		slog.String("request", req),
		slog.String("trace", trace))
}

// exitDegraded re-enables writes after a successful probe.
func (s *Store) exitDegraded() {
	if !s.degraded.Swap(false) {
		return
	}
	s.degradedMu.Lock()
	s.degradedCause = ""
	s.degradedMu.Unlock()
	if s.reg != nil {
		s.reg.SetDegraded(false)
	}
	s.log.LogAttrs(context.Background(), slog.LevelInfo,
		"store recovered: probe write succeeded, mutations re-enabled")
}

// probe checks whether the log takes durable writes again; on success
// the store leaves degraded mode.
func (s *Store) probe() {
	if s.wlog == nil {
		return
	}
	if err := s.wlog.Probe(); err != nil {
		s.log.LogAttrs(context.Background(), slog.LevelDebug, "degraded probe failed",
			slog.String("error", err.Error()))
		return
	}
	s.exitDegraded()
}

// rememberID records an applied idempotency key, evicting the oldest
// past the window. Applier-owned (startup replay runs before the
// applier), so no locking.
func (s *Store) rememberID(id string, seq uint64) {
	if id == "" {
		return
	}
	if _, ok := s.seen[id]; ok {
		return
	}
	s.seen[id] = seq
	s.seenOrder = append(s.seenOrder, id)
	if len(s.seenOrder) > idemWindow {
		delete(s.seen, s.seenOrder[0])
		s.seenOrder = s.seenOrder[1:]
	}
}

// Mutate submits one mutation and waits for it to be durable and
// applied. The returned sequence identifies the first version that
// includes it. Cancelling ctx abandons the wait, not the write: a
// mutation already queued may still apply.
func (s *Store) Mutate(ctx context.Context, m Mutation) (uint64, error) {
	seq, _, _, err := s.MutateTraced(ctx, m)
	return seq, err
}

// MutateTraced is Mutate plus the applier-side stage timing: the
// enqueue time and the batch's timing stamps (nil when the write failed
// before applying), which the request handler grafts into its span
// tree.
func (s *Store) MutateTraced(ctx context.Context, m Mutation) (uint64, time.Time, *batchTiming, error) {
	if m.Op != wal.OpUpdate && m.Op != wal.OpRetract {
		return 0, time.Time{}, nil, fmt.Errorf("server: unknown mutation op %q", m.Op)
	}
	if len(m.Facts) == 0 {
		return 0, time.Time{}, nil, errors.New("server: mutation with no facts")
	}
	if s.degraded.Load() {
		// Fail fast: don't even queue. A request already queued when the
		// flag flips is failed by the applier instead.
		_, cause := s.Degraded()
		return 0, time.Time{}, nil, fmt.Errorf("%w: %s", ErrDegraded, cause)
	}
	req := &mutReq{m: m, enq: time.Now(), ack: make(chan mutAck, 1)}
	select {
	case s.reqs <- req:
	case <-s.quit:
		return 0, req.enq, nil, errors.New("server: store is closed")
	case <-ctx.Done():
		return 0, req.enq, nil, ctx.Err()
	}
	select {
	case a := <-req.ack:
		return a.seq, req.enq, a.timing, a.err
	case <-ctx.Done():
		return 0, req.enq, nil, ctx.Err()
	case <-s.done:
		// The applier exited. A request enqueued concurrently with Close
		// may have been acked just before the exit (acks are buffered) or
		// never picked up at all.
		select {
		case a := <-req.ack:
			return a.seq, req.enq, a.timing, a.err
		default:
			return 0, req.enq, nil, errors.New("server: store is closed")
		}
	}
}

// Close stops the applier after it finishes the batch in hand (writes
// are never abandoned mid-apply) and closes the log. Mutations still
// queued are failed, not applied. Safe to call more than once.
func (s *Store) Close() error {
	s.closeOnce.Do(func() {
		close(s.quit)
		<-s.done
		if s.wlog != nil {
			s.closeErr = s.wlog.Close()
		}
	})
	return s.closeErr
}

// install publishes a version and its shape gauges.
func (s *Store) install(v *Version) {
	s.cur.Store(v)
	if s.reg != nil {
		base := 0
		for _, key := range v.EDB.Keys() {
			base += v.EDB.Count(key)
		}
		// Count the materialized relations themselves: a maintenance
		// run's Stats.FactsDerived covers only that run's new facts.
		derived := 0
		if v.Mat != nil {
			for key := range s.prog.Derived {
				derived += v.Mat.DB.Count(key)
			}
		}
		s.reg.SetStoreShape(v.Seq, base, derived)
	}
}

// applyToEDB applies one logged mutation to the base facts. Arity
// mismatches are the only way this fails; the applier validates before
// logging, so during replay a failure means the served program changed
// incompatibly under an old WAL.
func applyToEDB(edb *engine.Database, op wal.Op, facts []wal.Fact) error {
	switch op {
	case wal.OpUpdate:
		for _, f := range facts {
			if err := edb.CheckArity(f.Key, len(f.Row)); err != nil {
				return err
			}
			edb.Add(f.Key, f.Row...)
		}
	case wal.OpRetract:
		byKey := map[string][][]string{}
		for _, f := range facts {
			byKey[f.Key] = append(byKey[f.Key], f.Row)
		}
		for key, rows := range byKey {
			edb.RemoveFacts(key, rows)
		}
	default:
		return fmt.Errorf("unknown op %q", op)
	}
	return nil
}

// applier is the single writer: it drains waiting mutations into one
// batch, validates them, applies one maintenance pass per op-run on a
// fresh copy of the state, group-commits the WAL, installs the new
// version, and only then acknowledges.
func (s *Store) applier() {
	defer close(s.done)
	for {
		var first *mutReq
		if s.degraded.Load() {
			// Read-only: instead of blocking on work that would only be
			// refused, wake periodically to probe the log for recovery.
			timer := time.NewTimer(s.probeEvery)
			select {
			case first = <-s.reqs:
				timer.Stop()
			case <-timer.C:
				s.probe()
				continue
			case <-s.quit:
				timer.Stop()
				s.failQueued()
				return
			}
		} else {
			select {
			case first = <-s.reqs:
			case <-s.quit:
				s.failQueued()
				return
			}
		}
		batch := []*mutReq{first}
	drain:
		for len(batch) < maxBatch {
			select {
			case r := <-s.reqs:
				batch = append(batch, r)
			default:
				break drain
			}
		}
		s.applyBatch(batch)
	}
}

// failQueued rejects mutations still queued at shutdown.
func (s *Store) failQueued() {
	for {
		select {
		case r := <-s.reqs:
			r.ack <- mutAck{err: errors.New("server: store is closed")}
		default:
			return
		}
	}
}

// applyBatch runs one maintenance pass over a batch of mutations.
func (s *Store) applyBatch(batch []*mutReq) {
	if s.degraded.Load() {
		// Queued before (or while) the flag flipped: refuse without
		// touching the log or the state.
		_, cause := s.Degraded()
		s.ackAll(batch, mutAck{err: fmt.Errorf("%w: %s", ErrDegraded, cause)})
		return
	}
	start := s.now()
	timing := &batchTiming{dequeued: time.Now(), size: len(batch)}
	prev := s.cur.Load()
	edb := prev.EDB.Clone()
	mat := prev.Mat

	// Validate against the evolving base state; invalid mutations are
	// acked with their error and excluded from the batch (they reach
	// neither the log nor the maintenance pass). A mutation whose
	// idempotency key was already applied is acked with the remembered
	// sequence — it was durable the first time; an in-batch duplicate
	// rides along and acks with this batch's sequence.
	valid := batch[:0:0]
	var dupes []*mutReq // in-batch duplicates: share the batch's fate
	batchIDs := map[string]bool{}
	for _, r := range batch {
		if r.m.ID != "" {
			if seq, ok := s.seen[r.m.ID]; ok {
				r.ack <- mutAck{seq: seq}
				continue
			}
			if batchIDs[r.m.ID] {
				dupes = append(dupes, r)
				continue
			}
		}
		if err := s.validate(edb, r.m); err != nil {
			r.ack <- mutAck{err: err}
			continue
		}
		if r.m.ID != "" {
			batchIDs[r.m.ID] = true
		}
		valid = append(valid, r)
	}
	if len(valid) == 0 {
		return
	}

	// Maintain incrementally over runs of the same op, preserving the
	// submission order across op changes.
	var err error
	for i := 0; i < len(valid); {
		j := i
		for j < len(valid) && valid[j].m.Op == valid[i].m.Op {
			j++
		}
		run := valid[i:j]
		mat, err = s.applyRun(edb, mat, run[0].m.Op, run)
		if err != nil {
			s.ackAll(valid, mutAck{err: err})
			s.ackAll(dupes, mutAck{err: err})
			return
		}
		i = j
	}
	timing.applied = time.Now()

	// Group commit: one fsync covers every record in the batch. A log
	// failure here — append or sync, real or injected — means the batch
	// cannot be made durable: no version is installed, no ack is sent,
	// any frames already appended are rolled back to the durable prefix,
	// and the store flips to degraded read-only mode.
	seq := prev.Seq
	if s.wlog != nil {
		var werr error
		for _, r := range valid {
			seq++
			if werr = s.wlog.Append(wal.Record{Seq: seq, Op: r.m.Op, Facts: r.m.Facts, ID: r.m.ID, Trace: r.m.Trace}); werr != nil {
				break
			}
		}
		timing.walDone = time.Now()
		if werr == nil {
			werr = s.wlog.Sync()
		}
		timing.synced = time.Now()
		if werr != nil {
			if rberr := s.wlog.Rollback(); rberr != nil {
				s.log.LogAttrs(context.Background(), slog.LevelWarn, "wal rollback failed",
					slog.String("error", rberr.Error()))
			}
			// Attribute the failure to the first mutation of the batch:
			// its request and trace ids make the degraded cause (503
			// bodies, /readyz) correlatable with the flight recorder.
			s.enterDegraded(werr, valid[0].m.Req, valid[0].m.Trace)
			ack := mutAck{err: fmt.Errorf("%w: %s", ErrDegraded, werr)}
			s.ackAll(valid, ack)
			s.ackAll(dupes, ack)
			return
		}
		if s.reg != nil {
			s.reg.WALAppended(len(valid))
			s.reg.WALSynced()
		}
	} else {
		seq += uint64(len(valid))
	}

	for _, r := range valid {
		s.rememberID(r.m.ID, seq)
	}
	s.install(&Version{Seq: seq, EDB: edb, Mat: mat})
	// Checkpoint before acking: not needed for durability (the WAL
	// already covers the batch) but it keeps "ack received" implying
	// "checkpoint policy observed", which recovery tests rely on.
	s.maybeSnapshot(len(valid), seq, edb)
	timing.installed = time.Now()
	if s.reg != nil {
		s.reg.ObserveMaintenance(len(valid), s.now().Sub(start))
	}
	s.ackAll(valid, mutAck{seq: seq, timing: timing})
	s.ackAll(dupes, mutAck{seq: seq, timing: timing})
}

func (s *Store) ackAll(reqs []*mutReq, a mutAck) {
	for _, r := range reqs {
		r.ack <- a
	}
}

// validate rejects mutations the maintenance pass must never see:
// derived predicates (the fixpoint owns those) and arity mismatches
// with the evolving base state.
func (s *Store) validate(edb *engine.Database, m Mutation) error {
	for _, f := range m.Facts {
		if s.prog.Derived[f.Key] {
			return fmt.Errorf("server: %s is a derived predicate; only base facts can be written", f.Key)
		}
		if err := edb.CheckArity(f.Key, len(f.Row)); err != nil {
			return err
		}
	}
	return nil
}

// applyRun applies one same-op run of mutations: the base state is
// updated in place (it is this batch's private copy), and the
// materialization advances by one incremental pass — or, when the
// incremental path is unavailable or unsound (no previous fixpoint yet,
// negation, maintenance errors, a partial Retract result), by a full
// evaluation of the new base state. A full evaluation that itself fails
// or comes back partial disables materialization permanently instead of
// installing an incomplete fixpoint; the base facts remain exact either
// way, and queries fall back to per-goal evaluation over them.
func (s *Store) applyRun(edb *engine.Database, mat *engine.Result, op wal.Op, run []*mutReq) (*engine.Result, error) {
	// Chaos site: an injected maintenance error fails the batch before
	// anything is logged or installed — clients see a clean error, the
	// store stays on the previous version.
	if err := failpoint.Inject("store/maintain"); err != nil {
		return nil, fmt.Errorf("server: maintenance: %w", err)
	}
	delta := engine.NewDatabase()
	for _, r := range run {
		for _, f := range r.m.Facts {
			delta.Add(f.Key, f.Row...)
		}
		if err := applyToEDB(edb, op, r.m.Facts); err != nil {
			return nil, err
		}
	}
	if !s.matEnabled {
		return nil, nil
	}
	if mat != nil && s.incremental {
		var next *engine.Result
		var err error
		if op == wal.OpUpdate {
			next, err = engine.Update(s.prog, mat, delta, s.opt)
		} else {
			next, err = engine.Retract(s.prog, mat, delta, s.opt)
		}
		if err == nil && next != nil && !next.Partial {
			return next, nil
		}
		// An aborted Retract over-approximates (see retract.go) and a
		// failed Update proves nothing: discard and recompute. The new
		// base state is already in edb, so the re-evaluation is exact.
		s.log.LogAttrs(context.Background(), slog.LevelWarn, "incremental maintenance discarded",
			slog.String("op", string(op)),
			slog.Any("error", err))
		if s.reg != nil {
			s.reg.Reevaluated()
		}
	}
	next, err := engine.Eval(s.prog, edb, s.opt)
	if err != nil || next == nil || next.Partial {
		s.matEnabled = false
		s.log.LogAttrs(context.Background(), slog.LevelWarn,
			"materialization disabled: the program's fixpoint cannot complete under the store's bounds",
			slog.Any("error", err))
		return nil, nil
	}
	return next, nil
}

// maybeSnapshot checkpoints the base state once enough mutations have
// accumulated since the last checkpoint, then truncates the log. A
// failed checkpoint only logs: the WAL still covers every mutation, so
// durability is unaffected.
func (s *Store) maybeSnapshot(applied int, seq uint64, edb *engine.Database) {
	if s.wlog == nil || s.snapEvery <= 0 {
		return
	}
	s.sinceSnap += applied
	if s.sinceSnap < s.snapEvery {
		return
	}
	if err := wal.WriteSnapshotFile(s.snapPath, seq, edb); err != nil {
		s.log.LogAttrs(context.Background(), slog.LevelWarn, "checkpoint failed",
			slog.Any("error", err))
		return
	}
	if err := s.wlog.Reset(); err != nil {
		s.log.LogAttrs(context.Background(), slog.LevelWarn, "wal reset failed",
			slog.Any("error", err))
	}
	s.sinceSnap = 0
	if s.reg != nil {
		s.reg.SnapshotWritten()
	}
	s.log.LogAttrs(context.Background(), slog.LevelInfo, "checkpoint written",
		slog.Uint64("seq", seq))
}
