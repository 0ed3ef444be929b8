// Package cluster scales the allocation service (internal/serve) from
// one daemon to a horizontally sharded fleet, keeping the paper's
// allocation-speed thesis intact at cluster scale: requests route by
// consistent hashing so each program's content address lands on the
// node whose cache already holds it, and everything expensive — the
// allocations themselves — is done once and served many times.
//
// The pieces:
//
//   - Ring: a consistent-hash ring over node addresses with virtual
//     nodes. RouteKey hashes a request's (machine, algorithm, program)
//     triple — a stable proxy for the engine's content address that a
//     client can compute without engine internals — and Ring.Sequence
//     yields the owner followed by its successors, which is both the
//     failover order and the replication topology.
//
//   - Client: a cluster-aware front end that keeps a node table,
//     routes each request to its owner, fails over to ring successors
//     on node loss, honors 429 + Retry-After with bounded backoff, and
//     optionally hedges slow requests (a second copy to the successor
//     after HedgeDelay; first answer wins) to cut tail latency. It
//     parses programs locally and posts them as internal/irbin frames
//     (the fleet's one wire format); a program that does not parse
//     never reaches a node, and a 4xx answer other than 429 is final —
//     the request is at fault, not the node, so it does not fail over.
//
//   - Cluster / Node: an in-process supervisor that runs N serve.Server
//     nodes on real listeners, maintains the ring through node
//     join/leave/drain, and replicates hot cache entries to ring
//     successors (on join a node warms from its successor, on leave it
//     pushes its working set forward, and Replicate runs the same push
//     on a timer) through the serve layer's /cache/export + /cache/seed
//     endpoints, which carry diskcache.EncodeBinary entries. cmd/lsra-cluster wraps it as a binary for local
//     topologies; the tests and lsra-bench -cluster drive it directly.
//
// Nodes stay plain lsra-served daemons — the cluster is coordination-
// free (no consensus, no metadata service): membership is whatever the
// client's node table says, and the cache tiers (in-memory sharded LRU
// plus the optional internal/diskcache persistent tier) make routing
// mistakes merely slow, never wrong.
package cluster
