GO ?= go

.PHONY: check build vet lint test race pins examples bench bench-smoke perf perf-gate recover-test rebalance-test resilience-test s2v-test wire-test wire-fuzz obs-test gates lines surface

# The full verification gate: what CI (and every PR) must keep green.
check: build vet lint race pins

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Typed-options boundary: fails on exported funcs taking map[string]string
# outside the allowlisted External Data Source API surface.
lint:
	$(GO) run ./cmd/lintoptions

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Cost pins (ROADMAP item 26): the tests that hold a paper path's allocations,
# statements and container visits to committed constants — a COPY's bytes a
# row, an untraced statement's and a DELETE's allocations, HashAgg's, a
# commit's container visits, a V2S job's statements and a rebalance move's
# bytes a row. The allocation pins skip under the race detector, so this runs
# without it.
pins:
	$(GO) test -count=1 -run 'CopyAllocatedBytesPerRow|UntracedAccountingAllocs|DeleteAllocsNotPerRow' ./internal/vertica/
	$(GO) test -count=1 -run 'HashAggConsumeAllocsDoNotGrowWithBatch' ./internal/vexec/
	$(GO) test -count=1 -run 'TestCommitVisitsOnlyItsContainers|DeleteCommitVisitsOnlyItsContainers' ./internal/storage/
	$(GO) test -count=1 -run 'V2SStatementsPerJob' ./internal/core/
	$(GO) test -count=1 -run 'MoveTableCopiesEachRowOncePerSegment' ./internal/rebalance/

# Every program under examples/ end to end. Each narrates a run and exits
# non-zero on any error or broken expectation; only a failing one's output is
# shown.
examples:
	@for d in examples/*/; do \
	  out=$$($(GO) run ./$$d 2>&1) || { echo "$$out"; echo "examples: $$d failed"; exit 1; }; \
	  echo "ok  $$d"; \
	done

# Crash-recovery smoke: the frame-log/WAL/persistence units (the golden
# container file among them) plus the kill-and-restart chaos suite (crash at
# every WAL record boundary), the checkpoint suites (a failed one, one across
# an open DELETE, scans and UPDATEs racing one, the WAL-bytes trigger), the
# DELETE/UPDATE differential across a restart and the replay of logs written
# with either insert path, the local-segment cut surviving a replay, and a
# multi-block COPY replaying to the containers one dense batch builds, and
# the containers' one-byte codes — built where zone maps are, loaded from a
# container file (never from a lying zone map), and kept for exactly the
# eligible columns across a write, a durable restart, a rebalance and a
# recovery — under the race detector.
recover-test:
	$(GO) test -race ./internal/framelog/
	$(GO) test -race ./internal/wal/
	$(GO) test -race -run 'Persist|Marshal|Encode|DeletedRowsStayInTheirContainer|ImportContainerOrder|Golden|ContainerCodesFollowZoneMaps' ./internal/storage/
	$(GO) test -race -run 'AHM|CommitRequiresLog|Abort|SetNextTag' ./internal/txn/
	$(GO) test -race -run 'Durable|Checkpoint|KillAndRestart|CrashMid|ReplayProperty|AtEpoch|GeneratedDML|ReplaysLogsOfBothInsertPaths|NoContainerStraddlesALocalSegment|CopyBlocksRouteLikeOneBatch|ContainersKeepCodesIffEligible' ./internal/vertica/

# Elastic-membership gate: the rebalance units, rebalance's and recovery's
# container moves against the row-boxing reference and rebalance's epoch
# order, the cluster-lifecycle suites (ALTER CLUSTER, node recovery and the
# containers it adopts, crash sweeps over the rebalance/recovery state
# machines), every consumer of replica placement against the buddy
# rule, the local-segment cut across rebalance and recovery, a segment's
# replicas sharing the containers the layout built once (each with its own
# start epoch and delete vector), the wire
# sentinel round-trip, and the chaos acceptance
# scenario (grow + kill + heal under live COPY and V2S) — all under the race
# detector.
rebalance-test:
	$(GO) test -race ./internal/rebalance/
	$(GO) test -race -run 'ColumnarVersions|ImportContainerOrder' ./internal/storage/
	$(GO) test -race -run 'AlterCluster|NodeRecovery|RecoveringNode|RecoveryAdoptsSourceContainers|AtEpochPinnedAcrossRebalance|MembershipCrashSweep|RecoveryCrashSweep|ReplicaPlacementEquivalence|NoContainerStraddlesALocalSegment|ReplicasShareContainerParts' ./internal/vertica/
	$(GO) test -race -run 'SentinelRoundTrip' ./internal/server/
	$(GO) test -race -run 'ElasticClusterChaosAcceptance|V2SReplansAcrossMembershipChange' ./internal/core/

# Connection-resilience gate: the resilient layer's units (retry budgets and
# events, backoff, breakers, failover order, deadlines, the idle-session set:
# what it gives back, under which host, its bound, health check and close)
# and its seeded chaos soak over S2V, the connector's chaos, driver-connection
# and elastic suites, its one-connection planning and statements-per-job pins,
# its concurrent plans of one relation, the source's idle sessions (closed
# with the source, to a removed node, bounded under concurrent collects,
# untouched by S2V), and over TCP the client's deadline, transient-flag and
# failover tests and the idle sessions' second job, down node and closed
# server — all under the race detector.
resilience-test:
	$(GO) test -race ./internal/resilience/
	$(GO) test -race -run 'Chaos|Driver|Elastic|Failover|NodeDown|V2SPlansOnOneConnection|V2SReplans|StatementsPerJob|ConcurrentPlans|SourceCloseLeavesNoSessions|RemovedNodeIdleSessionsClose|ConcurrentCollectsKeepIdleBound|IdleSessionsSkipS2V' ./internal/core/
	$(GO) test -race -run 'OpTimeout|TransientFlag|Failover|SecondJobOverTCPDialsNothing|IdleSessionToDownNodeMatchesFreshDial|RedialsAClosedServer' ./internal/server/

# S2V gate: the Avro container units (each codec's header and round trip, the
# golden file, the block decoder against its reference), the Spark scheduler
# and its failure injector (hold and release rules included), every S2V suite
# of the connector (the raw Avro streams, phase-boundary failures,
# speculation, total failure, the elected committer dying, concurrent jobs),
# and the seeded exactly-once property tests three times over — all under the
# race detector.
s2v-test:
	$(GO) test -race ./internal/avro/ ./internal/spark/
	$(GO) test -race -run 'TestS2V|TestConcurrentS2VJobs' ./internal/core/
	$(GO) test -race -count 3 -run 'TestS2VExactlyOnceRandomFailures|TestS2VAppendExactlyOnceRandomFailures' ./internal/core/

# Wire-protocol gate: the binary frame codec (property tests plus the fuzz
# seed corpora), the handshake and unsupported-version refusals, result
# frames cut at wireBatchRows, the mid-COPY desync and COPY-abort
# regressions, the wire-equals-in-process differential (every join output
# form among its shapes), a server closing
# under live sessions, the client's boxing of result vectors against each
# column's Get (across slab boundaries too), the fixed-width plain codec
# against its per-value reference loops (a container's coded INTEGER vectors
# among them), the compare kernel over one-byte codes against the dense loop
# and seeded SELECTs over coded containers against the oracle, the
# resource-pool admission suites
# with a cancelled SELECT giving its slot back, its computed operators (project,
# group-by, filter over derived rows) included, and a closed session refusing
# COPY ... FROM STDIN — all under the race detector.
wire-test: wire-fuzz
	$(GO) test -race -run 'Bin|WireCode|Handshake|UnsupportedVersion|ExecuteStreamBatches|ColumnarFrames|PoolSentinels|MidCopy|CopyAbort|CopyEngineError|FrameCodec|ReadFrameRejects|WriteFrameSingle|WireDifferential|WireJoinOutputForms|ServerCloseEndsLiveSessions' ./internal/server/
	$(GO) test -race -run 'MaterializeMatchesGet|MaterializeAcrossSlabs|BatchMaterializeSubset|GatherEncodeMatchesMaterialize|PlainWordsMatchReference' ./internal/storage/
	$(GO) test -race -run 'CompareKernelsMatchReference' ./internal/vexec/
	$(GO) test -race ./internal/pool/
	$(GO) test -race -run 'ResourcePool|SetResourcePool|Admission|PoolDDL|SelectHonoursCancellation|ComputedOperatorsHonourCancellation|ClosedSessionRefusesCopy|GeneratedSelectsOverCodesMatchOracle' ./internal/vertica/

# Five seconds of native fuzzing on each decoder of untrusted bytes: the wire
# frames, the batch-frame payload codec (storage.DecodeColumns), the
# WAL/data-collector frame scanner (framelog.Scan), the SQL parser
# (vsql.Parse, which reads whatever statement text a connection sends; each
# expression it parses must print back to itself and evaluate compiled as
# Eval does), the
# Avro container reader (avro.Reader, which reads whatever a COPY streams) and
# the data-file decoder recovery runs (storage.UnmarshalContainer; its harness
# re-seals the checksum). That one skips input minimization: its seeds are
# whole files, and minimizing one interesting input at the default budget
# outlasts the five seconds.
wire-fuzz:
	$(GO) test -race -run xxx -fuzz FuzzBinRequestDecode -fuzztime 5s ./internal/server/
	$(GO) test -race -run xxx -fuzz FuzzBinDoneDecode -fuzztime 5s ./internal/server/
	$(GO) test -race -run xxx -fuzz FuzzBinErrorDecode -fuzztime 5s ./internal/server/
	$(GO) test -race -run xxx -fuzz FuzzDecodeColumns -fuzztime 5s ./internal/storage/
	$(GO) test -race -run xxx -fuzz FuzzScan -fuzztime 5s ./internal/framelog/
	$(GO) test -race -run xxx -fuzz FuzzParse -fuzztime 5s ./internal/vsql/
	$(GO) test -race -run xxx -fuzz FuzzAvroReader -fuzztime 5s ./internal/avro/
	$(GO) test -race -run xxx -fuzz FuzzUnmarshalContainer -fuzztime 5s -fuzzminimizetime 0 ./internal/storage/

# Observability gate: the data-collector spool units (framing, rotation,
# retention, crash-tail truncation), the engine-level dc suites (history
# surviving a simulated kill, retention via SET_DATA_COLLECTOR_POLICY,
# seeded query events), the /metrics + /healthz endpoint suites, and the
# Chrome-trace exporter, the data collector's per-statement cost bound
# (records, writes, fsyncs, allocations — counts, not a stopwatch), and the
# simulator's accounting pins (what a traced statement records, what an
# untraced one allocates) — all under the race detector.
obs-test:
	$(GO) test -race ./internal/dc/
	$(GO) test -race ./internal/obs/
	$(GO) test -race -run 'DC|QueryEvents|Metrics|Healthz|Counters|Profile|UntracedAccounting' ./internal/vertica/
	$(GO) test -race -run 'SimAccounting' ./internal/server/

# Gate patterns must not rot: every alternative of every quoted -run pattern
# in this file names at least one test, fuzz target or example of its
# package, and every alternative of every quoted -bench pattern at least one
# benchmark of the package its line ends with (go test -list). A renamed or
# deleted test otherwise leaves its gate running nothing, and a renamed
# benchmark leaves make bench timing nothing. The -run xxx of the fuzz and
# bench lines is meant to match nothing and is not quoted.
gates:
	@grep -o "\-run '[^']*' [^ ]*" Makefile | while read -r _ pat pkg; do \
	  names=$$($(GO) test -list . $$pkg | grep -E '^(Test|Fuzz|Example)') || exit 1; \
	  for alt in $$(echo $$pat | tr -d "'" | tr '|' ' '); do \
	    echo "$$names" | grep -q -- "$$alt" || { echo "gates: -run alternative $$alt matches no test in $$pkg"; exit 1; }; \
	  done; \
	done
	@grep -o "\-bench '[^']*' .*" Makefile | while read -r _ pat rest; do \
	  pkg=$${rest##* }; \
	  names=$$($(GO) test -list . $$pkg | grep -E '^Benchmark') || exit 1; \
	  for alt in $$(echo $$pat | tr -d "'" | tr '|' ' '); do \
	    echo "$$names" | grep -q -- "$$alt" || { echo "gates: -bench alternative $$alt matches no benchmark in $$pkg"; exit 1; }; \
	  done; \
	done

# Microbenchmarks. BenchmarkScan*/BenchmarkCount* are the scan throughput
# record; BenchmarkJoin3Way is sql_mix's three-way join statement (scans, two
# join steps to unique keys, group-by) over a 60 000-row fact table, with its
# bytes per statement; BenchmarkJoinDuplicateKeys is a join to repeated build
# keys over the same fact table, the form that gathers the probe side by
# matched pairs; BenchmarkGroupBy is sql_mix's INTEGER-key GROUP BY and the join
# statement's VARCHAR-key group-by, each alone over the same fixture;
# BenchmarkPointFilter is sql_mix's point and filter statements over it (the
# point statement's LIMIT 1 stops inside the container holding its match);
# BenchmarkV2SPartitionScan is the partition statements of a V2S job on
# 2 nodes over a 300 000-row d1-shaped table, v2s_pushdown's shape (pcol < 5,
# two columns) and v2s_full's (every column), in 4 partitions (half a segment
# each) and in 2 (a whole segment each), engine side only;
# BenchmarkResultPath is a result from container to boxed client rows
# (ns/row, B/row, allocs/row): one_frame is one 16 384-row frame, partition is
# a v2s_full partition (75 000 rows of 1 INTEGER + 10 FLOAT landed from 5
# frames, 33 MB boxed, past L2). It runs one goroutine, so on a quiet host
# with a large L3 it does not show the gain Materialize's slabs give
# v2s_full, where two executors box at once. BenchmarkS2VPartition is one
# s2v_save task (a 37 500-row generated D1WithInt partition saved through all
# five S2V phases into an in-process cluster; ns/row, B/op): the task streams
# the generator's 4 096-row chunks into its COPY, so its B/op holds one
# chunk's boxed rows, not the partition's. BenchmarkCompareKernel is the
# null-free INTEGER compare over a 65 536-row run of 0–99 values
# (v2s_pushdown's pcol) at 1, 5, 50 and 95 % selectivity, reading the 8-byte
# values (dense) or the container's one-byte codes (codes), in ns/row; it
# fails if the two keep different rows. fabricperf's vexec.agg_s /
# vexec.join_s / vertica.groupby_us / vertica.join_us time the same operators
# at workload scale.
bench:
	$(GO) test -bench=. -benchmem ./internal/bench/
	$(GO) test -run xxx -bench 'BenchmarkScan|BenchmarkCount' -benchtime 5x ./internal/vertica/
	$(GO) test -run xxx -bench 'BenchmarkJoin3Way|BenchmarkJoinDuplicateKeys|BenchmarkGroupBy|BenchmarkPointFilter|BenchmarkV2SPartitionScan' -benchmem ./internal/vertica/
	$(GO) test -run xxx -bench BenchmarkResultPath -benchmem ./internal/storage/
	$(GO) test -run xxx -bench 'BenchmarkS2VPartition' -benchmem ./internal/core/
	$(GO) test -run xxx -bench 'BenchmarkCompareKernel' ./internal/vexec/

# Every Go benchmark once, timings ignored: a benchmark whose own check fails
# (BenchmarkResultPath's landed-row count, say) fails this target. CI runs it.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# The end-to-end benchmark (BENCHMARK.json): all four fabricperf workloads,
# measured then traced, with per-layer tables. Minutes of wall time and
# timing-sensitive, so it is for a quiet machine, not the shared CI runner.
perf:
	$(GO) run ./cmd/fabricperf -all -seed 1

# perf, compared metric by metric against the committed baseline; exits
# non-zero when an end-to-end metric is worse by more than its bound.
perf-gate:
	$(GO) run ./cmd/fabricperf -compare bench/baseline/fabricperf.json

# Non-test .go lines (wc -l) per top-level package directory, outside the
# benchmark's own paths: the table every simplicity entry in CHANGES.md
# reports. Informational, never a gate.
lines:
	@find . -name '*.go' ! -name '*_test.go' ! -path './cmd/fabricperf/*' ! -path './internal/perf/*' ! -path './bench/baseline/*' -print0 \
	  | xargs -0 wc -l \
	  | awk '$$2 != "total" { n = split($$2, p, "/"); d = (n > 3) ? p[2] "/" p[3] : (n > 2 ? p[2] : "."); c[d] += $$1; t += $$1 } \
	         END { for (d in c) printf "%7d %s\n", c[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

# Exported API per library package (go doc -all, offline): funcs, methods,
# types, vars and consts (an exported name inside a const or var block counts
# once). The table a simplicity entry in CHANGES.md lists before and after.
# Informational, never a gate.
surface:
	@printf '%6s %7s %6s %5s %6s %s\n' funcs methods types vars consts package
	@for p in $$($(GO) list -f '{{if and (ne .Name "main") .GoFiles}}{{.ImportPath}}{{end}}' ./...); do \
	  $(GO) doc -all $$p | awk -v p=$${p#*/} ' \
	    /^\)/ { blk = ""; next } \
	    blk != "" { if ($$0 ~ /^\t[A-Z]/) n[blk]++; next } \
	    /^func \(/ { m++; next } /^func / { f++; next } /^type / { t++; next } \
	    /^(const|var) \($$/ { blk = $$1; next } /^(const|var) [A-Z]/ { n[$$1]++ } \
	    END { printf "%6d %7d %6d %5d %6d %s\n", f, m, t, n["var"], n["const"], p }'; \
	done
