/* Atomic primitives over a flat, cache-aligned word arena.

   The flat real backend stores every shared cell as one machine word in a
   contiguous 64-byte-aligned buffer exposed to OCaml as an int-kind
   Bigarray.  The int kind (not nativeint) is deliberate: int elements are
   stored untagged but read back as immediate OCaml ints, so the hot plain
   read on the OCaml side (Bigarray.Array1.unsafe_get) compiles to a single
   inlined load with no allocation, whereas nativeint elements would box on
   every read.  The C side therefore operates on intnat values that already
   carry OCaml's 63-bit range: every stub untags with Long_val / retags with
   Val_long so the in-memory representation is the raw (untagged) integer.

   All RMW stubs use __atomic builtins at seq_cst; plain OCaml-side loads of
   the same words are the backend's optimistic reads (the paper's premise:
   reads carry no barrier and may observe stale values).  None of the stubs
   allocates or raises, so they are declared [@@noalloc]. */

#include <errno.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <unistd.h>

#include <caml/alloc.h>
#include <caml/bigarray.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

#define OA_CACHE_LINE 64
#define OA_LINE_WORDS (OA_CACHE_LINE / sizeof(intnat))

static intnat *oa_flat_base(value vba) {
  return (intnat *)Caml_ba_data_val(vba);
}

/* Reserve [words] zeroed words, rounded up to a whole number of cache
   lines, with the first word 64-byte aligned (mmap returns page-aligned
   memory).  An anonymous NORESERVE mapping commits pages only when first
   touched, so a backend can reserve a generous arena up front — the paper's
   pre-allocated heap — at near-zero resident cost.  The mapping is handed
   to the bigarray layer as CAML_BA_EXTERNAL; Flat_mem pairs it with a
   GC finalizer calling oa_flat_release below.  A refused reservation
   raises Failure with a one-line reason, so a front end can report it
   as a resource limit rather than crash. */
CAMLprim value oa_flat_reserve(value vwords) {
  intnat words = Long_val(vwords);
  if (words <= 0) caml_invalid_argument("Flat_mem.alloc");
  char msg[160];
  if (words > (intnat)(SIZE_MAX / sizeof(intnat)) - (intnat)OA_LINE_WORDS) {
    snprintf(msg, sizeof msg,
             "cannot reserve %ld words for the node arena: too large",
             (long)words);
    caml_failwith(msg);
  }
  words = (words + OA_LINE_WORDS - 1) & ~((intnat)OA_LINE_WORDS - 1);
  void *data =
      mmap(NULL, (size_t)words * sizeof(intnat), PROT_READ | PROT_WRITE,
           MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (data == MAP_FAILED) {
    snprintf(msg, sizeof msg,
             "cannot reserve %.1f GiB of address space for the node arena "
             "(mmap: %s)",
             (double)words * sizeof(intnat) / (1024.0 * 1024.0 * 1024.0),
             strerror(errno));
    caml_failwith(msg);
  }
  return caml_ba_alloc_dims(
      CAML_BA_CAML_INT | CAML_BA_C_LAYOUT | CAML_BA_EXTERNAL, 1, data, words);
}

CAMLprim value oa_flat_release(value vba) {
  munmap(Caml_ba_data_val(vba),
         (size_t)Caml_ba_array_val(vba)->dim[0] * sizeof(intnat));
  return Val_unit;
}

/* Base address of the buffer, for alignment assertions in tests. */
CAMLprim value oa_flat_addr(value vba) {
  return Val_long((intnat)oa_flat_base(vba));
}

CAMLprim value oa_flat_load(value vba, value vi) {
  return Val_long(
      __atomic_load_n(oa_flat_base(vba) + Long_val(vi), __ATOMIC_SEQ_CST));
}

CAMLprim value oa_flat_store(value vba, value vi, value vv) {
  __atomic_store_n(oa_flat_base(vba) + Long_val(vi), Long_val(vv),
                   __ATOMIC_SEQ_CST);
  return Val_unit;
}

CAMLprim value oa_flat_cas(value vba, value vi, value vexp, value vnew) {
  intnat expected = Long_val(vexp);
  return Val_bool(__atomic_compare_exchange_n(
      oa_flat_base(vba) + Long_val(vi), &expected, Long_val(vnew), 0,
      __ATOMIC_SEQ_CST, __ATOMIC_SEQ_CST));
}

CAMLprim value oa_flat_faa(value vba, value vi, value vd) {
  return Val_long(__atomic_fetch_add(oa_flat_base(vba) + Long_val(vi),
                                     Long_val(vd), __ATOMIC_SEQ_CST));
}

/* A genuine full fence, replacing the old fetch-and-add on a shared
   fence cell that serialized every domain through one cache line. */
CAMLprim value oa_flat_fence(value unit) {
  (void)unit;
  atomic_thread_fence(memory_order_seq_cst);
  return Val_unit;
}

/* Spin-wait hint for CAS retry backoff. */
CAMLprim value oa_flat_cpu_relax(value unit) {
  (void)unit;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  __asm__ volatile("yield");
#endif
  return Val_unit;
}

/* Cache hint for word [i]: start loading its line for a read, into every
   cache level, and return at once.  A prefetch never faults, whatever the
   address, and the word is inside the arena's mapping anyway (never
   unmapped: the paper's Assumption 3.1), so a stale index only warms a
   harmless line.  It orders nothing and changes no memory. */
CAMLprim value oa_flat_prefetch(value vba, value vi) {
  __builtin_prefetch(oa_flat_base(vba) + Long_val(vi), 0, 3);
  return Val_unit;
}

/* Return the physical pages fully inside words [off, off+len) to the OS
   while keeping the mapping itself intact.  MADV_DONTNEED on an anonymous
   private mapping drops the resident pages; a later touch re-faults a zero
   page.  Crucially the address range stays mapped, so a stale optimistic
   reader racing with the decommit loads an old word or a zero — never a
   fault — preserving the paper's Assumption 3.1 (memory is never returned
   in a way that can make a hazardous read trap).  Partial pages at either
   edge are left alone; callers zero the whole span with oa_flat_fill
   first, so the contents contract (all words read as 0 afterwards) holds
   regardless of page alignment. */
CAMLprim value oa_flat_decommit(value vba, value voff, value vlen) {
  char *base = (char *)oa_flat_base(vba);
  size_t page = (size_t)sysconf(_SC_PAGESIZE);
  uintptr_t lo = (uintptr_t)(base + (size_t)Long_val(voff) * sizeof(intnat));
  uintptr_t hi = lo + (size_t)Long_val(vlen) * sizeof(intnat);
  uintptr_t alo = (lo + page - 1) & ~(uintptr_t)(page - 1);
  uintptr_t ahi = hi & ~(uintptr_t)(page - 1);
  if (ahi > alo) madvise((void *)alo, (size_t)(ahi - alo), MADV_DONTNEED);
  return Val_unit;
}

/* Host topology / VM facts for benchmark metadata and RSS gauges. */
CAMLprim value oa_sys_nproc(value unit) {
  (void)unit;
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  return Val_long(n > 0 ? n : 1);
}

CAMLprim value oa_sys_page_size(value unit) {
  (void)unit;
  long p = sysconf(_SC_PAGESIZE);
  return Val_long(p > 0 ? p : 4096);
}

/* Bulk fill of [len] words from [off] — the node-zeroing primitive behind
   Arena.zero_node (the paper's memset(obj, 0) in Algorithm 5).  Stores go
   through a volatile word pointer instead of memset: optimistic readers may
   race with the new owner's zeroing, and word-granular stores guarantee a
   stale read returns either the old word or the new one, never a torn mix
   (which could fabricate an out-of-range pointer index). */
CAMLprim value oa_flat_fill(value vba, value voff, value vlen, value vv) {
  volatile intnat *p = (volatile intnat *)oa_flat_base(vba) + Long_val(voff);
  intnat len = Long_val(vlen);
  intnat raw = Long_val(vv);
  for (intnat i = 0; i < len; i++) p[i] = raw;
  return Val_unit;
}
