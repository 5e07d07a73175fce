#!/usr/bin/env sh
# verify.sh — the full pre-merge gate: build, vet, and the test suite under
# the race detector. The resilience layer is concurrency-heavy (worker
# pools, circuit breakers, shared fault injectors), so -race is not
# optional here. The run includes the fixity kernel's differential tests
# and the seed corpora of its fuzz targets (FuzzInflateMatchesFlate,
# FuzzVerifyMatchesDecode, FuzzNodePut) and of the wire decoders'
# (FuzzDecodeCursor, FuzzDecodeBudget); CI's chaos job fuzzes them for
# real. The chunk-parallel check's tests run here too — the fanned-out
# loop held to the inline one inside FuzzVerifyMatchesDecode and
# TestForeignBlobShapes, TestChunkedEarliestDefectWins,
# TestChunkedCheckKeepsTwoChunksInFlight, TestChunkedCheckSaturated — and
# CI's chaos job repeats them at -count=10 -cpu 1,2,4. The one-check read's
# tests run here as well — TestClusterStoreChecksEachReadOnce
# (internal/cas), TestStoreReadsMatchOverShardedAndCluster and
# TestOneCorruptReplicaIsServedAroundAndRepaired (internal/cluster),
# TestPutStoresTheCheckedSize (internal/node) — with
# TestArchiveAnswerTakesNoToken (internal/recast); CI's chaos job repeats
# them at -count=5, and TestSweepListsEachMemberOnce (internal/cluster),
# one digest listing per member per sweep, at -count=3. The one durable blob store's tests run here too —
# TestKilledIngestKeepsThePreviousArchive, TestKilledRebuildLosesNothing,
# TestOpenRejectsAlteredMetadata, TestOpenRejectsADamagedRoot and
# TestOpenRebuildsALostIndex (internal/archive), TestParentImageReadsUnchanged,
# TestParentDirectoryReadsUnchanged, TestLostIndexIsRebuilt,
# TestCreateAddsAPackage, TestVerifyNamesTheDamagedFile and
# TestVerifyNamesAMissingBlob (cmd/daspos-archive), and the DiskBackend rows of TestStoredFormUnchanged
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
# and FuzzManifest (internal/archive), which CI's chaos job fuzzes too.
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

# The race detector changes what allocates, so the read tier's two
# allocation gates skip themselves above; hold them here without it. The
# RECAST back end's allocation and heap gates do the same, and the chain's
# aod-slim gate is held at the counts its ceiling was measured against.
echo "==> chain aod-slim allocation gate (race detector off)"
go test -count=1 -run 'TestSlimEncodeStoreAllocsFlatAcrossWorkers' .
echo "==> read-tier allocation gates (race detector off)"
go test -count=1 -run 'TestSearchPageCostBoundedByPage|TestCachedRecordGetAllocs' ./internal/queryserve
echo "==> full-simulation back-end allocation and heap gates (race detector off)"
go test -count=1 -run 'TestFullSimProcessAllocsPerEvent|TestFullSimMemoryIndependentOfEvents' ./internal/recast

# The ROADMAP's size metrics, printed so a re-anchor reads them here: what
# the reachability gate decides, and the non-test line count.
echo "==> reachability gate (declarations, fields, flags, and the wire's routes, parameters, headers and wire-only fields: total, reached or used from the mains, kept by reach-keep.txt)"
go test -count=1 -run '^TestInternalExportsAreReached$' -v ./internal/analysis | sed -n 's/.*reach: //p'
echo "==> non-test Go lines outside bench/"
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l

echo "verify: OK"
