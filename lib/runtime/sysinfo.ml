external nproc : unit -> int = "oa_sys_nproc" [@@noalloc]
external page_size : unit -> int = "oa_sys_page_size" [@@noalloc]

(* /proc/self/statm: "size resident shared text lib data dt", in pages.
   Linux-only; any parse or IO failure degrades to 0 so callers can treat
   the gauge as best-effort. *)
let rss_bytes () =
  try
    let ic = open_in "/proc/self/statm" in
    let line = try input_line ic with e -> close_in_noerr ic; raise e in
    close_in_noerr ic;
    match String.split_on_char ' ' (String.trim line) with
    | _size :: resident :: _ -> int_of_string resident * page_size ()
    | _ -> 0
  with _ -> 0
