# Standard workflows for the siphoc repository.

GO ?= go

.PHONY: all build test race cover check bench bench-all fed profile faults fuzz experiments examples clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# Pre-merge gate: static analysis plus the full test suite under the race
# detector. Run before every merge (see README.md "Development"). The
# observability trace/metrics tests run first as a fast-fail gate: they are
# the ones most sensitive to stats races; the rtp media plane follows because
# every stream of a host re-arms itself on one shard of the network's
# scheduler while frames land on it, the most write-contended path in the
# system. The lifecycle line closes and stops every protocol with work in flight
# (the Connection Provider's, in internal/core, rides the Gateway|Proxy line), and
# runs the SIP ownership rule (messages share header values and never write
# through them) where a write-through would be a reported race, the
# transaction users that now run on the shard (a UAS answering from a task, a
# lost ACK recovered by the retransmitted 200), and the AODV routing-loop fix
# (an echoed RREQ leaves a relay's one-hop route to its requester alone while
# the test goroutine injects a frame into the shard's stream), and AODV's
# refresh of a route in use, which writes the table under the lock every
# forwarded frame's lookup takes. The borrowed-frame tests (ControlFrameIsBorrowed
# on the lifecycle line, SplitFanOut and the SendFrame/SendWire pair on the
# netem line) run here because a handler that keeps a slice it was lent is a
# reported race under the detector, not only wrong bytes. The scheduler's alarm
# tests (on time, re-armed from another goroutine, closed while parked, its
# descriptors released) ride the clock line: an alarm set by At while the
# worker wakes is exactly the race the detector would report, and so are a
# task moved or cancelled from another goroutine while its worker pops it, and
# an SLP lookup recycled while one of its tasks may still run. So do the fake
# clock's own tests, whose accounting of parked workers and waiters is what
# lets virtual time advance itself: one instant per task, a released waiter
# resuming at its release, two shards and a sleeping test body giving one log
# over 50 runs, a wait on a closed scheduler, and a stuck wait's panic. The idle
# connectivity plane rides the core/slp line: the poll golden (a grid of
# polling providers on one shard, every frame's bytes and instant), the
# allocation pins of the poll, a relayed gateway query and the tunnel (the
# tunnel's two run their path and skip the count, which sync.Pool makes
# meaningless under the detector), and the two fixes that came with them — a
# PING answered only for a tunnel the gateway holds, and wildcard answers that
# no longer follow map order. The control plane's live state rides the first
# line: OLSR's route lookup reads the table its BFS writes under the protocol
# lock while frames are forwarded, the network's node-handle table is interned
# into and probed from goroutines while a two-shard grid reads it on every
# frame, OLSR's duplicate rows (a selector's late copy relayed once, a number
# forgotten after its hold, a restarted origin heard again under its old
# handle), the receive path's fuzz seeds, and the SLP
# query tables' expiry tasks, which drain a table on the shard worker while the
# test goroutine inserts into it (a restarted node's expired query key relayed
# again, a burst's storage handed back, a task run at no allocation), and the
# two sets pruned on insert: AODV's RREQ duplicate set, which the HELLO task
# also drains while the test goroutine inserts into it (with the RERRs of a
# beat that loses two neighbours, in one order), and SLP's miss set
# forgetting a burst oldest first. So does the relay set's send debt — in a
# grid of polling providers a relayed query rides two of a relay's broadcasts
# and no unicast; each broadcast writes the count under qmu while frame
# deliveries insert queries — and the scheduler batch the worker clears after
# it runs, so that a task that has run is no longer reachable through it,
# under the detector's instrumented runtime as without it. So do
# the footprint pins: a converged grid's per-handle stores and the rebuild
# scratch every rebuild takes off one mutex-guarded free list and gives back,
# and the SLP extension written straight into the frame while relay tasks run —
# a free list that dropped scratch under the detector, or an extension that
# kept a buffer between calls, would show here as an allocation. So does
# the SIP linger queue, whose task drains the server-transaction table on the
# shard worker while goroutines off the shard send finals into it. The root
# line replays a grid's frames byte for byte: Scenario.Grid gives handles in
# spec order and brings nodes up one after another, and the race run is
# where a bring-up that went back to goroutines would be seen. So do OLSR's
# beats sent on change and the provider's probe at Start: a moved beat is
# re-armed with At under the protocol lock while the shard worker may be
# popping it, a start-time HELLO and probe run on the caller's goroutine
# beside the shard that answers them, a recompute ends route waits that
# RequestRoute adds from other goroutines, and Stop cancels the bound beat,
# hold-down and route-wait tasks while a run may be under way — the cold
# grid's round-trip convergence, the beat-only traffic at rest, the rate
# limit on a flapping link with nothing sent after Stop, the hold-down
# task's allocation pin, the route wait ended by its recompute and the
# provider attached inside its first ProbeInterval; and the empty TCs of a node
# whose selector set emptied, sent from the beat the lapse moved. So do the
# attached lookup that ends when the table settles — the digest that settles
# it claims the waiting lookups under the cache lock, as an install does,
# while the lookup's deadline task may be claiming it on the shard — the
# quiet neighbour that holds the settle off, the digest recorded at no
# allocation, and AODV's first HELLO, sent from Start on the caller's
# goroutine beside the shard's HELLO beat. So do OLSR's change floods — a
# newcomer's edge reaching the far zone in one flood, the phased floods
# alone at rest, and the budget that bounds a churning node's full floods,
# whose TCs a moved beat sends while the test goroutine drives its
# neighbours — and the own registration that leaves the table settled: the
# settle check now reads the queue of pending broadcasts, which every
# broadcast drains, under the cache lock. The core/slp
# line runs the provider's query schedule over a minute of a polling grid, and
# (through its Gateway pattern) the gossiped gateway advert that wakes an idle
# provider: the SLP cache calls the provider's watcher on the shard that
# installed the advert, which moves the provider's timer while its own shard
# may run it. The netem fault tests on that line include the partition read
# at an instant inside its 10 ms window on a fake clock.
check:
	$(GO) vet ./...
	$(GO) test -race -run 'CloseDuringTraffic|CloseUnblocksAwait|ServerTxExpiry|LateFinalLingersFull64T1|FinishedServerTxPinsNoMessage|ServerTxLingerTaskAllocFree|ServerTxTableGivesMemoryBack|FinalsFromManyGoroutines|RejectAfterAnswerIsRefused|ProceedingReplaysProvisional|BranchlessRequestsDoNotCollide|ProvisionalThenFinal|InviteNon2xxGetsAck|LostAckIsRecovered|CloneIsolation|WireBytesGolden|ControlFrameIsBorrowed|PiggybackExtensionDelivered|OverBudgetExtensionIsCut|StopFailsPendingDiscoveriesOnce|StopDuringRouteWaitAndHoldDown|StopDropsReplies|StopEndsLookups|DaemonGoroutinesFlatInCalls|EchoedRREQKeepsNeighbourRoute|NextHopAllocFree|LateSelectorCopyForwardedOnce|DuplicateForgottenAfterHold|RestartedOriginHeardAgain|HandleTableConcurrentIntern|UsedRouteIsRefreshed|RecomputeWithoutNewNodeAllocFree|StoreBytesPerHandle|AppendOutgoingAppendsInPlace|FuzzHandleHello|FuzzHandleTC|ExpiredQueryKeyIsRelayedAgain|QueryTablesGiveMemoryBack|QueryExpiryTaskAllocFree|SeenRREQsForgottenAfterHold|LostNeighboursRERRInIDOrder|MissSetExpiresOldestFirst|RelayedQueryRidesTwoBroadcasts|SchedulerBatchReleasesTasks|ColdGridConvergesInRoundTrips|ConvergedGridSendsOnlyBeats|TriggeredEmissionsRateLimited|HoldDownAllocFree|RouteWaitEndsOnRecompute|ProviderProbesAtStart|EmptiedSelectorSetWithdrawsEdges|SettlingDigestEndsLookup|QuietNeighbourBlocksSettle|HeardDigestAllocFree|AttachedSLPMissEndsOnSettledTable|FirstHelloAtStart|FarZoneLearnsChangeInOneFlood|RestFloodsFullOnceAFarPeriod|ChangeFloodsBudgeted|OwnRegistrationKeepsTableSettled' -count 1 ./internal/sip/ ./internal/voip/ ./internal/routing/... ./internal/slp/ ./internal/daemon/ ./internal/core/ ./internal/clock/
	$(GO) test -race -run 'TestGridGolden|TestGridFramesReplay|TestEventLoopGoroutinesIndependentOfN|TestEventLoopGoroutinesIndependentOfCalls|TestComponentsTakeHostClock' -count 1 .
	$(GO) test -race -run 'TestCallTrace|TestMetrics' .
	$(GO) test -race -short -run 'TestControlScaleSmoke' .
	$(GO) test -race -run 'TestFederationSmoke|TestFederationOverlayResolution' -count 1 .
	$(GO) test -race -run 'Fault|Partition|LinkQuality|Gateway|Proxy|Lifecycle|LateAck|UnhandledPortDrops|NegativeCache|RemembersSLPMiss|LookupCoalescing|LookupRefloods|LookupNotFound|Gossip|AdvertLifetime|MulticastCountsAdverts|IncomingKnownAdvertsAllocs|TransitHop|TransitWithoutRoute|WriteToDelivery|LoopbackWriteTo|RecycledBufferIsPoisoned|BorrowedSendDatagram|SplitFanOut|SendFrameLeavesCallerStorageAlone|SendWireMoves|FlushPendingCounts|OversizeRefused|BroadcastLossShares|ForwardTTL|DeliveredNodeIDs|SeededLossChain|TimerReset|Rearm|WakeupAllocFree|SeenQueryInsertExpiry|OneShardTotalOrder|NetworkCloseFinishesStreams|AbsoluteDeadlineNoDrift|SchedulerCloseDropsQueued|SystemClockOnTime|EarlierDeadlineRearms|CloseWakesParkedWorker|ReleasesAlarms|ReapsStoppedHead|SchedulerStats|IdlePollGolden|IdlePollBacksOff|IdleProbeRoundAllocFree|RelayedWildcardQueryAllocFree|TunnelPingAllocFree|TunnelDatagramAllocFree|GatewayRestartReopens|WildcardAnswerIsFreshest|SchedulerAtMovesQueuedTask|SchedulerCancel|TaskMoveAllocFree|LookupRecycled|TaskSeesOneInstant|WaitResumesAtRelease|VirtualTimeDeterministic|WaitOnClosedScheduler|StuckWaitPanics' ./internal/netem/ ./internal/clock/ ./internal/core/ ./internal/slp/
	$(GO) test -race -short ./internal/overlay/
	$(GO) test -race -run 'TestIncrementalFullEquivalenceGolden' -count 1 ./internal/routing/olsr/
	$(GO) test -race ./internal/rtp/
	$(GO) test -race ./...

# Hot-path benchmark snapshots, committed as JSON so regressions show up in
# diffs. bench-all additionally runs the long E-series scenario benchmarks.
# The netem (with the OLSR control-frame benchmark), SIP, obs, RTP,
# ControlScale and OverlayLookup snapshots are gated: the fresh run is compared
# against the committed BENCH_netem.json / BENCH_sip.json / BENCH_obs.json /
# BENCH_rtp.json / BENCH_scale.json / BENCH_dht.json first
# (cmd/benchcmp fails on >25% regression of convergence_ms, allocs/node/s,
# lookup_ms or allocs/op, and on any allocs/op where zero is committed; ns/op
# is host noise and ungated), and only replaces it when it passes — a failing
# run leaves the .new file behind for inspection.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/netem/ ./internal/routing/olsr/ | $(GO) run ./cmd/benchjson > BENCH_netem.json.new
	$(GO) run ./cmd/benchcmp BENCH_netem.json BENCH_netem.json.new
	mv BENCH_netem.json.new BENCH_netem.json
	$(GO) test -run '^$$' -bench '^BenchmarkSIP' -benchmem . | $(GO) run ./cmd/benchjson > BENCH_sip.json.new
	$(GO) run ./cmd/benchcmp BENCH_sip.json BENCH_sip.json.new
	mv BENCH_sip.json.new BENCH_sip.json
	$(GO) test -run '^$$' -bench 'ObsOverhead' -benchmem . | $(GO) run ./cmd/benchjson > BENCH_obs.json.new
	$(GO) run ./cmd/benchcmp BENCH_obs.json BENCH_obs.json.new
	mv BENCH_obs.json.new BENCH_obs.json
	$(GO) test -run '^$$' -bench 'VoiceFrame|PacketParse|MediaScale' -benchmem ./internal/rtp/ | $(GO) run ./cmd/benchjson > BENCH_rtp.json.new
	$(GO) run ./cmd/benchcmp BENCH_rtp.json BENCH_rtp.json.new
	mv BENCH_rtp.json.new BENCH_rtp.json
	$(GO) test -run '^$$' -bench 'OverlayLookup' -benchmem -timeout 10m ./internal/overlay/ | $(GO) run ./cmd/benchjson > BENCH_dht.json.new
	$(GO) run ./cmd/benchcmp BENCH_dht.json BENCH_dht.json.new
	mv BENCH_dht.json.new BENCH_dht.json
	$(GO) test -run '^$$' -bench 'ControlScale' -benchtime 1x -timeout 20m . | $(GO) run ./cmd/benchjson > BENCH_scale.json.new
	$(GO) run ./cmd/benchcmp BENCH_scale.json BENCH_scale.json.new
	mv BENCH_scale.json.new BENCH_scale.json
	$(MAKE) fed

# Federation scale snapshot: a 3-island × 2-gateway federation under a
# 1000-concurrent-call workload, trunked and untrunked, committed as
# BENCH_fed.json (see EXPERIMENTS.md "Federation — before/after").
# Sequenced, not piped: in a pipeline `go run ./cmd/benchjson` compiles
# while the benchmark's first variant attaches and ramps, and that CPU
# burst alone is enough to distort a saturation workload.
fed:
	$(GO) build -o /dev/null ./cmd/benchjson
	$(GO) test -run '^$$' -bench 'Federation' -benchtime 1x -timeout 30m . > BENCH_fed.txt
	$(GO) run ./cmd/benchjson < BENCH_fed.txt > BENCH_fed.json
	rm -f BENCH_fed.txt

bench-all:
	$(GO) test -bench=. -benchmem ./...

# CPU + heap profile of the control-plane scale study. The top-10 flat CPU
# and allocation sites are written to PROFILE_scale.txt.new, diffed against
# the committed PROFILE_scale.txt (cmd/profdelta prints per-function flat%
# deltas and entries that joined or left each top-10 — informational, never
# fails the build), then promoted. Commit the refreshed summary alongside
# the change that moved it, and mirror it into EXPERIMENTS.md
# ("Control-plane scale — before/after") when the core changes.
profile:
	$(GO) test -run '^$$' -bench 'ControlScale' -benchtime 1x -timeout 20m \
		-cpuprofile cpu.pprof -memprofile mem.pprof -o siphoc.test .
	$(GO) tool pprof -top -nodecount=10 siphoc.test cpu.pprof | tee PROFILE_scale.txt.new
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_space siphoc.test mem.pprof | tee -a PROFILE_scale.txt.new
	$(GO) run ./cmd/profdelta PROFILE_scale.txt PROFILE_scale.txt.new
	mv PROFILE_scale.txt.new PROFILE_scale.txt

# The full fault matrix under the race detector (deterministic replay,
# scenario recovery invariants, golden recovery traces), then the gateway
# failover latency distribution committed as JSON (see EXPERIMENTS.md
# "Failure matrix").
faults:
	$(GO) test -race -run 'Fault|Partition|LinkQuality|Gateway|Proxy|Lifecycle|LateAck' ./internal/netem/ ./internal/core/ ./internal/slp/
	$(GO) test -race -run 'TestFaultMatrix' -count 1 .
	$(GO) test -race -run 'TestPartitionHealGoldenRecovery' ./internal/rtp/
	$(GO) test -run '^$$' -bench 'GatewayFailover' -benchtime 5x . | $(GO) run ./cmd/benchjson > BENCH_faults.json

# Brief fuzzing pass over every fuzz target (extend -fuzztime for real
# campaigns; the committed corpora under testdata/fuzz run as normal tests).
fuzz:
	$(GO) test ./internal/sip/ -run XXX -fuzz FuzzParse$$ -fuzztime 30s
	$(GO) test ./internal/sdp/ -run XXX -fuzz FuzzParse$$ -fuzztime 15s
	$(GO) test ./internal/sdp/ -run XXX -fuzz FuzzParseMatchesReference$$ -fuzztime 15s
	$(GO) test ./internal/sdp/ -run XXX -fuzz FuzzMarshalParses$$ -fuzztime 10s
	$(GO) test ./internal/slp/ -run XXX -fuzz FuzzParsePayload$$ -fuzztime 15s
	$(GO) test ./internal/slp/ -run XXX -fuzz FuzzIncomingMatchesParse$$ -fuzztime 15s
	$(GO) test ./internal/routing/ -run XXX -fuzz FuzzParseEnvelope$$ -fuzztime 15s
	$(GO) test ./internal/netem/ -run XXX -fuzz FuzzUnmarshalDatagram$$ -fuzztime 15s
	$(GO) test ./internal/netem/ -run XXX -fuzz FuzzUnmarshalUDPFrame$$ -fuzztime 10s
	$(GO) test ./internal/netem/ -run XXX -fuzz FuzzDatagramForwardInPlace$$ -fuzztime 10s
	$(GO) test ./internal/core/ -run XXX -fuzz FuzzParseTunnelMsg$$ -fuzztime 10s
	$(GO) test ./internal/overlay/ -run XXX -fuzz FuzzOverlayMessage$$ -fuzztime 10s
	$(GO) test ./internal/routing/aodv/ -run XXX -fuzz FuzzParseRREQ$$ -fuzztime 10s
	$(GO) test ./internal/routing/aodv/ -run XXX -fuzz FuzzParseRREP$$ -fuzztime 10s
	$(GO) test ./internal/routing/aodv/ -run XXX -fuzz FuzzParseRERR$$ -fuzztime 10s
	$(GO) test ./internal/routing/olsr/ -run XXX -fuzz FuzzHandleHello$$ -fuzztime 10s
	$(GO) test ./internal/routing/olsr/ -run XXX -fuzz FuzzHandleTC$$ -fuzztime 10s
	$(GO) test ./internal/sip/ -run XXX -fuzz FuzzParseURI$$ -fuzztime 10s
	$(GO) test ./internal/sip/ -run XXX -fuzz FuzzParseNameAddr$$ -fuzztime 10s
	$(GO) test ./internal/sip/ -run XXX -fuzz FuzzDigest$$ -fuzztime 10s
	$(GO) test ./internal/sip/ -run XXX -fuzz FuzzCloneIsolation$$ -fuzztime 15s

# Regenerate every figure/claim of the paper (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/experiments -run all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/interop
	$(GO) run ./examples/campus
	$(GO) run ./examples/emergency

clean:
	$(GO) clean ./...
