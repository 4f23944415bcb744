type buffer = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let line_words = 64 / 8

external reserve_words : int -> buffer = "oa_flat_reserve"
external release : buffer -> unit = "oa_flat_release"

let alloc ~words =
  let b = reserve_words words in
  Gc.finalise release b;
  b

let length (b : buffer) = Bigarray.Array1.dim b

external addr : buffer -> int = "oa_flat_addr" [@@noalloc]

(* The optimistic read: a plain inlined load.  ocamlopt compiles int-kind
   bigarray access to a direct memory load; every call site that needs
   ordering pairs it with an explicit {!fence} (as the SMR schemes do). *)
let get (b : buffer) i = Bigarray.Array1.unsafe_get b i

(* The plain store dual of {!get}: a single inlined store instruction.
   An aligned word store is single-copy atomic at the ISA level, so racing
   readers see old or new, never torn; ordering against other locations is
   the caller's job (a subsequent {!cas} or {!fence} — both C calls, hence
   also compiler barriers — publishes it). *)
let set (b : buffer) i v = Bigarray.Array1.unsafe_set b i v

(* Bounds-checked twins of {!get}/{!set}: the reference semantics the
   differential test (test_unsafe_access) holds the unsafe accessors
   against.  Never used on hot paths. *)
let get_checked (b : buffer) i = Bigarray.Array1.get b i
let set_checked (b : buffer) i v = Bigarray.Array1.set b i v

external load : buffer -> int -> int = "oa_flat_load" [@@noalloc]
external store : buffer -> int -> int -> unit = "oa_flat_store" [@@noalloc]
external cas : buffer -> int -> int -> int -> bool = "oa_flat_cas" [@@noalloc]
external faa : buffer -> int -> int -> int = "oa_flat_faa" [@@noalloc]
external fence : unit -> unit = "oa_flat_fence" [@@noalloc]
external cpu_relax : unit -> unit = "oa_flat_cpu_relax" [@@noalloc]
external prefetch : buffer -> int -> unit = "oa_flat_prefetch" [@@noalloc]

external fill : buffer -> int -> int -> int -> unit = "oa_flat_fill"
  [@@noalloc]

external decommit : buffer -> int -> int -> unit = "oa_flat_decommit"
  [@@noalloc]
