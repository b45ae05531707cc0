package main

// Recorded output digests. Seed 1 is the calibration seed; seed 7 was
// not used while tuning the benchmark and is kept for checking claims.
// For any other seed the run still checks determinism: every sweep of
// the run must render identical tables, and the corpus prefix must give
// the same manifest on nproc workers and on one.

// sweepDigests maps a seed to the SHA-256 of every experiment table of
// the paper-sweep configuration rendered as CSV in expr.All() order.
var sweepDigests = map[int64]string{
	1: "a9045891a568e4c7b19e0bdc243dbd5e1567e0b634797c37dcee3677eedbbf69",
	7: "2235375260c2e43a885c8dd91b199d525e810652962853e9fe4e0ff8342d0de7",
}

// corpusDigests maps a seed to the manifest digest of the corpus
// workload's checked prefix (corpusDigestN instances).
var corpusDigests = map[int64]string{
	1: "89db48d678fb9f47485b8b0ad1bdfa24d976dcc1f7986d3bd020bf936e8f1d1f",
	7: "07d675f09e74011d12d172093d3274206a8be5841c4dc583f269f094bbdd97f1",
}
