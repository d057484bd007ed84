GO ?= go

.PHONY: all build crossbuild vet staticcheck lint test race short transportrace serverrace scrubrace churnrace storagerace perfbench bench ci clean

all: ci

build:
	$(GO) build ./...

# Cross-compile for architectures without the amd64 assembly, so the
# portable GF(256) kernels (internal/gf256/kernels_noasm.go) and every
# other non-amd64 path keep building. Needs no network.
crossbuild:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=386 $(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet. Skips (with a notice) when the staticcheck
# binary is not installed, so offline/container builds stay green.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Project invariant analyzers (locksafe, wiremsg, detrand, droppederr,
# mapsort). Stdlib-only and offline — unlike staticcheck this is never
# skipped; see DESIGN.md "Enforced invariants".
lint:
	$(GO) run ./cmd/corec-lint ./...

test:
	$(GO) test -vet=all ./...

# Race-enabled run of the fast suite; the chaos/stochastic tests skip
# themselves under -short.
race:
	$(GO) test -race -short ./...

short:
	$(GO) test -short ./...

# Race-detector pass over the TCP fabric at one and several cores: the
# multiplexed connection is the only transport, so its writer/reader
# goroutines, cancellation and redial paths all run here.
transportrace:
	$(GO) test -race -cpu 1,4 ./internal/transport

# Race-detector pass over the staging server at one and several cores:
# the directory shard and its index, encode workers and stripe drops.
serverrace:
	$(GO) test -race -cpu 1,4 ./internal/server

# Race-detector pass focused on the background anti-entropy scrubber and
# chaos paths: the concurrent scrub/foreground test runs even under -short
# precisely so this job covers the scrubber goroutines.
scrubrace:
	$(GO) test -race -run 'TestScrub|TestChaos' ./...

# Race-detector pass focused on elastic membership churn: gossip agents,
# dynamic ring, and the paced migrator running against foreground traffic.
churnrace:
	$(GO) test -race -run 'TestElastic|TestRebalance' .
	$(GO) test -race ./internal/membership ./internal/topology

# Race-detector pass focused on the tiered storage engine: the concurrent
# spill/upload/prefetch chaos tests plus the cluster-level kill-restart
# recovery of the disk tier, at one and several cores.
storagerace:
	$(GO) test -race -cpu 1,2,4 ./internal/storage
	$(GO) test -race -cpu 1,2,4 -run 'TestTiered' .

# The repo benchmark is its own Go module, so `go test ./...` never builds
# it; it is the consumer that keeps Config.MuxConnsPerPeer and
# TCPNetwork.ConfigureMux compiling.
perfbench:
	cd perfbench && $(GO) vet . && $(GO) test .

# Multi-process cluster harness, CI-budgeted: real corec-server OS
# processes over TCP, the open-loop quick scenario matrix (fault-free +
# kill-restart arms, SLO invariants enforced by TestClusterBenchQuick under
# the race detector), plus the process-level kill/restart and operator-CLI
# suites. The SLO table is written to cluster-quick.json FIRST so a failing
# gate still leaves the artifact for upload and post-mortem.
clusterquick:
	$(GO) run ./cmd/corec-bench -experiment cluster -quick -json cluster-quick.json
	$(GO) test -timeout 8m ./internal/cluster
	$(GO) test -timeout 12m -race -run TestClusterBenchQuick ./internal/harness

# bench smoke-runs every Go benchmark once, then regenerates the erasure
# engine's regression artifact (encode workers=1 vs N, cold vs cached decode
# matrices at 4+2 and 8+3). BENCH_erasure.json is committed so perf
# regressions show up as diffs.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...
	$(GO) run ./cmd/corec-bench -experiment erasure -json BENCH_erasure.json
	$(GO) run ./cmd/corec-bench -experiment transport -json BENCH_transport.json
	$(GO) run ./cmd/corec-bench -experiment membership -json BENCH_membership.json
	$(GO) run ./cmd/corec-bench -experiment tiering -json BENCH_tiering.json
	$(GO) run ./cmd/corec-bench -experiment cluster -json BENCH_cluster.json

ci: vet staticcheck lint build crossbuild race transportrace serverrace scrubrace churnrace storagerace test perfbench clusterquick

clean:
	$(GO) clean ./...
