(* Metric names, their units, and the text lines printed ahead of the
   result object. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("verdicts_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_p90_ms", "ms");
    ("peak_rss_mb", "MB");
  ]

let model_names =
  List.map (fun (m : Verifyio.Model.t) -> m.Verifyio.Model.name) (Verifyio.Model.all ())

let per_layer =
  [
    ("codec.decode_ms", "ms");
    ("codec.records", "count");
    ("estore.build_ms", "ms");
    ("estore.major_gcs", "count");
    ("estore.alloc_mb", "MB");
    ("conflict.detect_ms", "ms");
    ("conflict.pairs", "count");
    ("conflict.groups", "count");
    ("match.run_ms", "ms");
    ("match.events", "count");
    ("graph.build_ms", "ms");
    ("graph.nodes", "count");
    ("graph.edges", "count");
    ("reach.create_ms", "ms");
    ("msc.index_ms", "ms");
    ("msc.sync_ops", "count");
  ]
  @ List.map (fun m -> ("verify.run_ms." ^ m, "ms")) model_names
  @ [
      ("verify.ps_checks", "count");
      ("verify.fast_group_ratio", "ratio");
      ("verify.races", "count");
      ("reach.queries", "count");
      ("reach.memo_hit_ratio", "ratio");
      ("report.render_ms", "ms");
      ("spool.submit_ms", "ms");
      ("serve.job_wall_ms", "ms");
      ("serve.queue_ms", "ms");
      ("cache.hit_ratio", "ratio");
      ("serve.hit_latency_ms", "ms");
      ("serve.miss_latency_ms", "ms");
      ("trace.overhead_ratio", "ratio");
    ]

(* The per-layer values of one traced pass, from the span totals. Only
   layers the pass exercised appear. *)
let layer_values (t : (string, float) Hashtbl.t) =
  let has k = Hashtbl.mem t k and g k = Span.get_in t k in
  let count k = if has k then [ (k, g k) ] else [] in
  let span_ms name k = if has k then [ (name, Util.ms (g k)) ] else [] in
  List.concat
    [
      span_ms "codec.decode_ms" "codec.decode";
      count "codec.records";
      span_ms "estore.build_ms" "estore.build";
      count "estore.major_gcs";
      count "estore.alloc_mb";
      span_ms "conflict.detect_ms" "conflict.detect";
      count "conflict.pairs";
      count "conflict.groups";
      span_ms "match.run_ms" "match.run";
      count "match.events";
      span_ms "graph.build_ms" "graph.build";
      count "graph.nodes";
      count "graph.edges";
      span_ms "reach.create_ms" "reach.create";
      span_ms "msc.index_ms" "msc.index";
      count "msc.sync_ops";
      List.concat_map
        (fun m -> span_ms ("verify.run_ms." ^ m) ("verify.run_ms." ^ m))
        model_names;
      count "verify.ps_checks";
      (if has "verify.groups" then
         [ ("verify.fast_group_ratio", Util.ratio (g "verify.fast_groups") (g "verify.groups")) ]
       else []);
      count "verify.races";
      count "reach.queries";
      (if has "reach.memo_lookups" then
         [ ("reach.memo_hit_ratio", Util.ratio (g "reach.memo_hits") (g "reach.memo_lookups")) ]
       else []);
      span_ms "report.render_ms" "report.render";
    ]

(* The median over the passes of each per-layer metric; counts are
   equal in every pass. *)
let median_of_passes (passes : (string * float) list list) =
  let names = List.sort_uniq compare (List.concat_map (List.map fst) passes) in
  List.map
    (fun n -> (n, Util.median (Array.of_list (List.filter_map (List.assoc_opt n) passes))))
    names

let print_per_layer ~correct ~attempted ~failed values =
  let missing =
    List.filter (fun (n, _) -> not (List.mem_assoc n values)) per_layer
  in
  if missing <> [] then
    Util.note "# not exercised by this workload (reported as 0): %s"
      (String.concat " " (List.map fst missing));
  Util.print_result ~correct ~attempted ~failed
    (List.map
       (fun (n, u) ->
         Util.m n u (Option.value ~default:0. (List.assoc_opt n values)))
       per_layer)

let pass_wall = Float.Array.fold_left ( +. ) 0.

(* Every timing is a plain statistic of the run's raw samples, with no
   sample dropped: the latency percentiles are over every unit's wall in
   every pass, and throughput is the work of all passes over their whole
   timed wall (the sum of every unit's wall). [passes] holds each pass's
   walls in seconds, indexed like [units]. The samples are also written
   to [samples.tsv] in [work]: pass, unit, wall in seconds. *)
let print_end_to_end ~work ~correct ~attempted ~failed ~setup_s ~peak ~verdicts ~units (passes : Float.Array.t list) =
  let oc = open_out (Filename.concat work "samples.tsv") in
  List.iteri
    (fun k p -> Float.Array.iteri (fun i w -> Printf.fprintf oc "%d\t%s\t%.9f\n" k units.(i) w) p)
    passes;
  close_out oc;
  let ms = Float.Array.map_to_array Util.ms (Float.Array.concat passes) in
  let timed_s = List.fold_left (fun a p -> a +. pass_wall p) 0. passes in
  let verdicts_per_s = float_of_int (verdicts * List.length passes) /. timed_s in
  let pass_rate p = float_of_int verdicts /. pass_wall p in
  Util.note "# samples: %d passes; %d unit walls behind each percentile"
    (List.length passes) (Array.length ms);
  if Array.length ms < 100 then
    Util.note "# latency_p90_ms rests on fewer than 100 samples: a rough tail, not a p90";
  Util.note "# per-pass verdicts_per_s, in run order: %s"
    (String.concat " " (List.map (fun p -> Printf.sprintf "%.4g" (pass_rate p)) passes));
  Util.note "# failure_ratio: %d/%d = %g" failed attempted
    (Util.ratio (float_of_int failed) (float_of_int attempted));
  let value = function
    | "setup_s" -> setup_s
    | "verdicts_per_s" -> verdicts_per_s
    | "latency_p50_ms" -> Util.pct ms 50.
    | "latency_p90_ms" -> Util.pct ms 90.
    | "peak_rss_mb" -> peak
    | n -> failwith n
  in
  Util.print_result ~correct ~attempted ~failed
    (List.map (fun (n, u) -> Util.m n u (value n)) end_to_end)
