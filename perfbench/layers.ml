(* One unit of work — a trace file verified under a list of models — in
   its two forms. [pipeline] is the program's own path
   ([Pipeline.prepare_file], then [verify_prepared] per model); [chain]
   makes the same calls one layer at a time, in [Pipeline.prepare_file]'s
   order, each inside a span. Both render every verdict the way the
   service caches it. The traced run checks that both give the same
   verdicts on every unit. *)

module V = Verifyio
module Cache = Serve.Cache

type result = {
  verdicts : Check.verdict array;  (** one per model, in model order *)
  races : (V.Model.t * (int * int) list) list;  (** for the lattice check *)
  engine : string;
}

let flags =
  Serve.Spool.flags_string
    {
      Serve.Spool.id = "";
      trace = "";
      models = [];
      lenient = false;
      partial = false;
      budget = None;
      timeout_ms = None;
    }

(* A sink for the rendered bytes, so rendering cannot be skipped. *)
let rendered_bytes = ref 0

let render ~(e : Gen.entry) model o =
  let doc =
    Cache.verdict_json ~flags ~trace_sha256:e.Gen.sha ~lenient:false
      ~partial:false ~model o
  in
  rendered_bytes := !rendered_bytes + String.length (Cache.render doc)

let collect models (outcomes : V.Pipeline.outcome list) =
  {
    verdicts = Array.of_list (List.map Check.of_outcome outcomes);
    races = List.map2 (fun m o -> (m, Check.race_pairs o)) models outcomes;
    engine =
      (match outcomes with
      | o :: _ -> V.Reach.engine_name o.V.Pipeline.engine_used
      | [] -> "none");
  }

let pipeline (e : Gen.entry) models =
  let p = V.Pipeline.prepare_file e.Gen.path in
  let outcomes =
    List.map
      (fun model ->
        let o = V.Pipeline.verify_prepared ~model p in
        render ~e model o;
        o)
      models
  in
  collect models outcomes

let zero_timings =
  {
    V.Pipeline.t_read = 0.;
    t_conflicts = 0.;
    t_graph = 0.;
    t_engine = 0.;
    t_verify = 0.;
    t_total = 0.;
  }

let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* The model-independent layers of one trace. *)
type prepared = {
  d : V.Estore.t;
  groups : V.Conflict.group list;
  pairs : int;
  matching : V.Match_mpi.result;
  graph : V.Hb_graph.t;
  engine : V.Reach.engine;
  reach : V.Reach.t;
  sidx : V.Msc.sync_index;
}

(* The prepared layers of one trace, each call in its own span. *)
let chain_prepare ~trace ~parent (e : Gen.entry) =
  let sp name f = Span.with_ ~trace ~parent name (fun _ -> f ()) in
  let gcs0 = (Gc.quick_stat ()).Gc.major_collections and w0 = alloc_words () in
  let d = sp "estore.build" (fun () -> V.Estore.of_file e.Gen.path) in
  Span.add "estore.major_gcs"
    (float_of_int ((Gc.quick_stat ()).Gc.major_collections - gcs0));
  Span.add "estore.alloc_mb" ((alloc_words () -. w0) *. 8. /. 1048576.);
  let groups = sp "conflict.detect" (fun () -> V.Conflict.detect d) in
  let pairs = V.Conflict.distinct_pairs groups in
  Span.add "conflict.pairs" (float_of_int pairs);
  Span.add "conflict.groups" (float_of_int (List.length groups));
  let matching = sp "match.run" (fun () -> V.Match_mpi.run d) in
  Span.add "match.events" (float_of_int (List.length matching.V.Match_mpi.events));
  let graph = sp "graph.build" (fun () -> V.Hb_graph.build d matching) in
  Span.add "graph.nodes" (float_of_int (V.Hb_graph.size graph));
  Span.add "graph.edges" (float_of_int (V.Hb_graph.edge_count graph));
  let engine =
    V.Reach.recommend ~nranks:(V.Estore.nranks d)
      ~graph_nodes:(V.Hb_graph.size graph) ~conflict_pairs:pairs
  in
  let reach = sp "reach.create" (fun () -> V.Reach.create engine graph) in
  let sidx = sp "msc.index" (fun () -> V.Msc.build_index d) in
  Span.add "msc.sync_ops" (float_of_int (V.Msc.sync_op_count sidx));
  { d; groups; pairs; matching; graph; engine; reach; sidx }

(* One model's verdict over the prepared layers, then its rendering. *)
let chain_verify ~trace ~parent (e : Gen.entry) p model =
  let sp name f = Span.with_ ~trace ~parent name (fun _ -> f ()) in
  let races, stats =
    sp ("verify.run_ms." ^ model.V.Model.name) (fun () ->
        V.Verify.run model p.reach p.sidx p.d p.groups)
  in
  Span.add "verify.ps_checks" (float_of_int stats.V.Verify.ps_checks);
  Span.add "verify.fast_groups" (float_of_int stats.V.Verify.fast_groups);
  Span.add "verify.groups" (float_of_int stats.V.Verify.groups);
  Span.add "verify.races" (float_of_int (List.length races));
  let o =
    {
      V.Pipeline.model;
      mode = Recorder.Diagnostic.Strict;
      races;
      race_count = List.length races;
      unmatched = p.matching.V.Match_mpi.unmatched;
      inventory = [];
      dropped_events = 0;
      conflicts = p.pairs;
      graph_nodes = V.Hb_graph.size p.graph;
      graph_edges = V.Hb_graph.edge_count p.graph;
      stats;
      timings = zero_timings;
      decoded = p.d;
      engine_used = p.engine;
      degradation = V.Pipeline.no_degradation;
    }
  in
  sp "report.render" (fun () -> render ~e model o);
  o

let reach_counts p =
  let hits, misses = V.Reach.memo_stats p.reach in
  Span.add "reach.queries" (float_of_int (V.Reach.query_count p.reach));
  Span.add "reach.memo_hits" (float_of_int hits);
  Span.add "reach.memo_lookups" (float_of_int (hits + misses))

let chain ~trace ~parent (e : Gen.entry) models =
  let p = chain_prepare ~trace ~parent e in
  let outcomes = List.map (chain_verify ~trace ~parent e p) models in
  reach_counts p;
  collect models outcomes

(* The decoder alone over the same file, for [codec.*]. *)
let codec_decode ~trace ~parent (e : Gen.entry) =
  let f =
    Span.with_ ~trace ~parent "codec.decode" (fun _ ->
        Recorder.Codec.fold_records e.Gen.path ~init:() ~f:(fun () _ -> ()))
  in
  Span.add "codec.records" (float_of_int f.Recorder.Codec.f_records)
