(** Size-class geometry for the elastic allocator.

    Every arena holds nodes of one fixed field count, so its size class is
    fully determined by [fields]: the {e stride} is the flat layout's
    ({!Oa_runtime.Real_backend.node_stride} — a power of two for nodes of
    up to a line, whole lines beyond), and a {e chunk} is a power-of-two
    run of same-class nodes sized to land near a target of 2 MiB — big
    enough that chunk-table operations are rare, small enough that a
    fully-free chunk is worth returning to the OS. *)

let word_bytes = 8
let target_chunk_bytes = 2 * 1024 * 1024

(** Smallest power of two [>= n] (for [n >= 1]). *)
let pow2_at_least n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

(** Largest power of two [<= n] (for [n >= 1]). *)
let pow2_at_most n =
  let rec go p = if p * 2 <= n then go (p * 2) else p in
  go 1

(** Default nodes per chunk for a given field count: the largest power of
    two whose chunk stays at or under the 2 MiB target, floored at 8 so
    degenerate classes still amortize their chunk record.  A chunk holds
    at least 8 nodes, so its stride is that of any multi-node block. *)
let default_chunk_nodes ~fields =
  let per_target =
    target_chunk_bytes
    / (Oa_runtime.Real_backend.node_stride ~nodes:8 ~fields * word_bytes)
  in
  max 8 (pow2_at_most (max 1 per_target))

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n
