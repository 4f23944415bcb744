(** SplitMix64 pseudo-random generator (Steele, Lea & Flood, OOPSLA 2014).

    Small, fast and statistically solid for simulation purposes; every
    consumer in this repository (scheduler tie-breaking, skip-list levels,
    workload key streams) derives its own independently seeded instance, so
    experiments are reproducible from a single seed.

    The 64-bit state lives unboxed in an 8-byte buffer: a draw reads and
    writes it in place, so [next] and [below] allocate nothing (a boxed
    [int64] field would cost a fresh box per draw, on the hot path of every
    workload generator and skip-list insert). *)

type t = Bytes.t

let create seed =
  let b = Bytes.create 8 in
  Bytes.set_int64_ne b 0 (Int64.of_int seed);
  b

(* Advance the state and mix it.  Inlined into each caller so the
   intermediate [int64]s stay in registers. *)
let[@inline] step t =
  let z = Int64.add (Bytes.get_int64_ne t 0) 0x9E3779B97F4A7C15L in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let next_int64 t = step t

(** Uniform non-negative int (62 bits). *)
let next t = Int64.(to_int (logand (step t) 0x3FFFFFFFFFFFFFFFL))

(** [below t n] — uniform in [0, n).  [n > 0]. *)
let below t n = next t mod n

(** [float t] — uniform in [0, 1). *)
let float t = Int64.to_float (Int64.shift_right_logical (step t) 11) *. 0x1p-53

(** Fork an independent stream; [split t i] with distinct [i] gives
    decorrelated child generators. *)
let split t i = create (Int64.to_int (step t) lxor (i * 0x9E3779B9))
