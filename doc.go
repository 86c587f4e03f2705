// Package modelhub is a from-scratch Go reproduction of "Towards Unified
// Data and Lifecycle Management for Deep Learning" (Miao, Li, Davis,
// Deshpande — ICDE 2017): the ModelHub system, comprising the DLV model
// versioning system, the DQL model exploration/enumeration language, and
// the PAS read-optimized parameter archival store, together with every
// substrate they depend on (a pure-Go DNN engine, synthetic datasets, an
// typed metadata catalog, a hosted sharing service, and the
// storage-plan optimization algorithms).
//
// See README.md for a tour, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-vs-measured results.
// The root-level bench_test.go regenerates every table and figure of the
// paper's evaluation; `go run ./cmd/mhbench -exp all` prints them.
package modelhub
