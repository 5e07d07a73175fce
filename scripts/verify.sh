#!/usr/bin/env sh
# verify.sh — the full pre-merge gate: build, vet, and the test suite under
# the race detector. The resilience layer is concurrency-heavy (worker
# pools, circuit breakers, shared fault injectors), so -race is not
# optional here. The run includes the fixity kernel's differential tests
# and the seed corpora of its fuzz targets (FuzzInflateMatchesFlate,
# FuzzVerifyMatchesDecode, FuzzNodePut) and of the wire decoders'
# (FuzzDecodeCursor, FuzzDecodeBudget); CI's chaos job fuzzes them for
# real. So do the kernel's bit-exactness tests — no single-bit flip, no
# appended byte and no set padding bit of a stored form passes:
# TestBitExactFlipsRefused, TestBitExactAppendRefused and
# TestBitExactPaddingRefused (internal/cas), which CI's chaos job repeats
# at -count=5. The chunk-parallel check's tests run here too — the
# fanned-out loop held to the inline one inside FuzzVerifyMatchesDecode,
# TestForeignBlobShapes (foreign chunk sizes and splits refused by name),
# the first two bit-exactness tests, TestChunkedEarliestDefectWins,
# TestChunkedCheckKeepsTwoChunksInFlight, TestChunkedCheckSaturated — and
# CI's chaos job repeats them at -count=10 -cpu 1,2,4. The one-check read's
# tests run here as well — TestClusterStoreChecksEachReadOnce
# (internal/cas), TestStoreReadsMatchOverShardedAndCluster and
# TestOneCorruptReplicaIsServedAroundAndRepaired (internal/cluster),
# TestPutStoresTheCheckedSize, and the node verify's kernel verdict,
# TestVerifyVerdictIsTheKernels, TestCleanVerifyRunsNoKernel and
# TestVerifyRacesPutAndDelete (internal/node) — with
# TestArchiveAnswerTakesNoToken (internal/recast); CI's chaos job repeats
# them at -count=5, and TestSweepListsEachMemberOnce (internal/cluster),
# one digest listing per member per sweep, at -count=3. The one durable blob store's tests run here too —
# TestKilledIngestKeepsThePreviousArchive, TestKilledRebuildLosesNothing,
# TestOpenRejectsAlteredMetadata, TestOpenRejectsADamagedRoot and
# TestOpenRebuildsALostIndex (internal/archive), TestParentImageReadsUnchanged,
# TestParentDirectoryReadsUnchanged, TestLostIndexIsRebuilt,
# TestCreateAddsAPackage, TestVerifyNamesTheDamagedFile,
# TestVerifyNamesAMissingBlob and the migrate tests, TestMigrateRewritesAV2Tier,
# TestMigrateRefusesADamagedV2Blob and TestMigrateLeavesARunAlone
# (cmd/daspos-archive), and the DiskBackend rows of TestStoredFormUnchanged
# and TestStoreReadsMatchOverShardedAndCluster; CI's chaos job repeats the
# kill sweep at -count=5. It also includes the reachability gate
# (TestInternalExportsAreReached in internal/analysis): an exported
# internal/ declaration no main reaches, an internal/ struct field no code
# a main reaches reads, or a flag of a main that no script, CI step,
# README line or test sets fails here unless
# internal/analysis/testdata/reach-keep.txt keeps it for a stated reason.
# The gate decides the wire too: a daemon's route, query parameter or
# header that no client, curl line or outside test uses fails, as does a
# field only a response carries that no client decodes by name, and
# internal/analysis/testdata/wire.golden pins the routes that remain.
# The daemons' one listen/drain helper is held by
# TestDrainFinishesInFlightBeforeClose (internal/daemon), and the seed
# corpora of the archived-capsule decoders' fuzz targets run here too —
# FuzzDecode (internal/envcapture) and FuzzReadJSON (internal/provenance);
# CI's chaos job repeats the first at -count=10 and fuzzes the two for real.
# So do the seed corpora of the archive's two index decoders, FuzzReadImage
# and FuzzManifest (internal/archive), and of a run's step.json decoder,
# FuzzStepRecord (internal/checkpoint), which CI's chaos job fuzzes too, and
# of the HepData archive's packed round trip, FuzzArchiveRoundTrip
# (internal/hepdata), and of the chain-config decoders, FuzzReadSnapshot
# (internal/conditions), FuzzDecodeMenu (internal/trigger) and
# FuzzDecodeDerivation (internal/skim), and of the interview decoder,
# FuzzInterviewDecode (internal/interview), and of the event-file reader,
# the v2 migration and the YODA-like histogram reader, FuzzFileReader and
# FuzzMigrateV2 (internal/datamodel) and FuzzReadYODA (internal/hist), which
# CI's chaos job fuzzes too; their allocation bounds run here as
# TestFrameLengthReservesNothing, TestOtherFormatsAreRefusedAtTheMagic,
# TestMapCountReservesNothing and TestBinCountReservesNothing.
# The store's deflate encoder is held to compress/flate's BestSpeed writer
# byte for byte here too — the seed corpus of FuzzDeflateMatchesFlate
# (which CI's chaos job fuzzes),
# TestEncoderIsHistoryFree, TestEncoderOffsetWrap and
# TestBitCountsMatchReference (internal/cas) — and its allocation gate,
# TestEncodeAllocs, runs below without the race detector.
# The read tier's retained-heap gates,
# TestPublishedRecordHeapObjects and TestRebuiltIndexKeepsNoRecordText
# (internal/queryserve), run below beside its allocation gates — the
# publish path's TestPublishAllocs among them, and the packed record's
# TestPackAllocs and the float kernel's TestShortestAllocs
# (internal/hepdata) beside it — and the seed corpus of
# FuzzTermsMatchReference, which holds the index's terms to the map-and-sort
# builders it replaced, runs here (CI's read-tier fuzz step fuzzes it); so
# do the float kernel's seed corpus, FuzzFloatMatchesStrconv, its
# million-value sweep against strconv, TestShortestMatchesStrconv, and
# TestPow10TableMatchesBig, which rebuilds its power table with math/big
# (internal/hepdata; CI's read-tier fuzz step fuzzes the first), and the
# artifact writer's, TestStreamOutputAllocatesTwiceItsSize
# (internal/workflow).
# Every example users are told to run runs here too, its whole output
# pinned by a golden: TestOutputMatchesGolden in examples/quickstart,
# examples/masterclass and examples/preservation_audit, and
# TestDemoMatchesGolden and TestScanMatchesGoldens (cmd/daspos-recast) for
# `daspos-recast demo` and both back ends' `scan`, and
# TestRunAndResumeMatchGoldens (cmd/daspos-pipeline) for a checkpointed
# `daspos-pipeline` run and its `-resume`, TestSubcommandsMatchGoldens
# (cmd/daspos-interview) and TestSeed7MatchesGoldens (cmd/daspos-display),
# TestDemoMatchesGolden (cmd/daspos-query) for `daspos-query demo`, and the
# three daemons' serve tests, TestServeAnswersEveryRouteAndReportsTheDrain
# (cmd/daspos-node) and TestServeAnswersEveryRouteAndDrains
# (cmd/daspos-query, cmd/daspos-recast); the reachability gate fails a main under examples/ or
# cmd/ whose run no test calls. No CI step
# is needed for them: CI runs this script, and its `go test -race ./...`
# runs them.
set -eu
cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> daspos-vet ./... (preservation + concurrency invariants)"
go run ./cmd/daspos-vet -budget 60000 ./...

echo "==> go test -race ./..."
go test -race ./...

# The race detector changes what allocates, so the read tier's three
# allocation gates and two retained-heap gates skip themselves above; hold
# them here without it. The RECAST back end's allocation and heap gates do
# the same, as do the artifact writer's, the store encoder's and the online
# chain's (TestOnlineRecoAllocsPerEvent: the online and reconstruction
# steps, per event), and the chain's aod-slim gate is held at the counts its
# ceiling was measured against.
echo "==> chain aod-slim and online allocation gates (race detector off)"
go test -count=1 -run 'TestSlimEncodeStoreAllocsFlatAcrossWorkers|TestOnlineRecoAllocsPerEvent' .
echo "==> artifact writer allocation gate (race detector off)"
go test -count=1 -run 'TestStreamOutputAllocatesTwiceItsSize' ./internal/workflow
echo "==> read-tier allocation and retained-heap gates (race detector off)"
go test -count=1 -run 'TestSearchPageCostBoundedByPage|TestCachedRecordGetAllocs|TestPublishAllocs|TestPackAllocs|TestShortestAllocs|TestPublishedRecordHeapObjects|TestRebuiltIndexKeepsNoRecordText' ./internal/queryserve ./internal/hepdata
echo "==> store encoder allocation gate (race detector off)"
go test -count=1 -run 'TestEncodeAllocs' ./internal/cas
echo "==> full-simulation back-end allocation and heap gates (race detector off)"
go test -count=1 -run 'TestFullSimProcessAllocsPerEvent|TestFullSimMemoryIndependentOfEvents' ./internal/recast

# The ROADMAP's size metrics, printed so a re-anchor reads them here: what
# the reachability gate decides, how many mains a test runs, and the
# non-test line count.
echo "==> reachability gate (declarations, fields, flags, and the wire's routes, parameters, headers and wire-only fields: total, reached or used from the mains, kept by reach-keep.txt; then the mains, how many a test runs and which no test runs)"
go test -count=1 -run '^TestInternalExportsAreReached$' -v ./internal/analysis | sed -n 's/.*reach: //p'
echo "==> non-test Go lines outside bench/"
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l

echo "verify: OK"
