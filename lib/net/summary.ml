(** Latency/throughput summaries of a load-generation run: the printed
    percentile table and the machine-readable [BENCH_server.json]. *)

module H = Oa_obs.Histogram

type t = {
  scheme : string;
  shards : int;
  workers_per_shard : int;
  conns : int;
  pipeline : int;
  batch : int;  (** requests per client write group (<= pipeline) *)
  server_batch : int;
      (** the server's batched-path bound, from the STATS probe; 0 when
          the server predates the field *)
  elapsed : float;  (** seconds *)
  ops : int;  (** responses received (including BUSY) *)
  ok : int;  (** boolean results *)
  busy : int;
  errors : int;
  latency : H.t;  (** nanoseconds, successful responses *)
  chunks_live : int;
      (** server arena chunks holding live slots, from the STATS probe;
          0 when the server predates the field *)
  rss_bytes : int;
      (** server resident set, from the STATS probe; 0 when the server
          predates the field *)
}

let throughput t = if t.elapsed <= 0.0 then 0.0 else float_of_int t.ops /. t.elapsed

let quantiles = [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99) ]

let to_table t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "scheme=%s shards=%d workers=%d conns=%d pipeline=%d batch=%d \
        server-batch=%d\n\
        %d responses in %.3fs: %.0f ops/s (ok=%d busy=%d errors=%d)\n"
       t.scheme t.shards t.workers_per_shard t.conns t.pipeline t.batch
       t.server_batch t.ops t.elapsed (throughput t) t.ok t.busy t.errors);
  if t.rss_bytes > 0 || t.chunks_live > 0 then
    Buffer.add_string buf
      (Printf.sprintf "server memory: chunks-live=%d rss=%.1f MiB\n"
         t.chunks_live
         (float_of_int t.rss_bytes /. 1048576.));
  if H.count t.latency > 0 then begin
    Buffer.add_string buf "latency      usec\n";
    List.iter
      (fun (name, q) ->
        Buffer.add_string buf
          (Printf.sprintf "  %-9s %8.1f\n" name
             (H.quantile q t.latency /. 1e3)))
      quantiles;
    Buffer.add_string buf
      (Printf.sprintf "  %-9s %8.1f\n  %-9s %8.1f\n" "mean"
         (H.mean t.latency /. 1e3)
         "max"
         (H.quantile 1.0 t.latency /. 1e3))
  end;
  Buffer.contents buf

let to_json t =
  let lat name q = Printf.sprintf "\"%s\":%.0f" name (H.quantile q t.latency) in
  Printf.sprintf
    "{\"bench\":\"server\",\"scheme\":\"%s\",\"shards\":%d,\
     \"workers_per_shard\":%d,\"conns\":%d,\"pipeline\":%d,\"batch\":%d,\
     \"server_batch\":%d,\
     \"duration_s\":%.3f,\"ops\":%d,\"ok\":%d,\"busy\":%d,\"errors\":%d,\
     \"throughput_ops_per_s\":%.1f,\"latency_ns\":{%s,\"mean\":%.0f,\
     \"count\":%d},\"mem_chunks_live\":%d,\"mem_rss_bytes\":%d}\n"
    t.scheme t.shards t.workers_per_shard t.conns t.pipeline t.batch
    t.server_batch t.elapsed t.ops t.ok t.busy t.errors (throughput t)
    (String.concat "," (List.map (fun (n, q) -> lat n q) quantiles))
    (H.mean t.latency) (H.count t.latency) t.chunks_live t.rss_bytes

let write_json ~path t =
  let oc = open_out path in
  output_string oc (to_json t);
  close_out oc
