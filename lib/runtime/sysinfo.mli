(** Host facts for benchmark metadata and memory gauges. *)

val nproc : unit -> int
(** Number of CPUs currently online ([sysconf(_SC_NPROCESSORS_ONLN)]);
    at least 1.  Unlike [Domain.recommended_domain_count] this is not
    clamped by the runtime's idea of useful parallelism, so benchmark
    metadata records the machine actually swept. *)

val page_size : unit -> int
(** VM page size in bytes (4096 on mainstream Linux). *)

val rss_bytes : unit -> int
(** Resident set size of the current process in bytes, read from
    [/proc/self/statm].  Returns 0 on platforms without procfs — callers
    must treat the gauge as best-effort. *)
