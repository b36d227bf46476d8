(* The in-process workload (wide): units of work verified in this
   process, in seeded order, pass after pass until the run's time is
   spent. *)

module V = Verifyio

type spec = {
  models : V.Model.t list;
  untraced : Gen.entry -> V.Model.t list -> Layers.result;
  traced : trace:int -> parent:int -> Gen.entry -> V.Model.t list -> Layers.result;
  warm : Gen.entry array -> unit;
  (* Built after the timed region: is verdict [v] of trace [i] under
     the [j]-th model right? [corrupt] perturbs the reference data, for
     the self-test. *)
  reference : corrupt:bool -> Gen.entry array -> int -> int -> Check.verdict -> bool;
  (* The layer predicted to dominate the unit. *)
  dominant : string;
}

(* What the harness keeps of the verdicts it has seen: each distinct
   verdict of each (trace, model) with how often it came, the units that
   raised, and the lattice violations. While the program is
   deterministic this stays the same size however many passes run, and
   walls are kept in float arrays, which the GC does not scan: the
   harness's heap does not grow from pass to pass, so the forced
   collections in [Estore.finish] cost the same in the last pass as in
   the first. *)
type tally = {
  seen : (int * int * Check.verdict, int) Hashtbl.t;
  mutable units : int;
  mutable raised : int;
  mutable lattice : int;
  engines : string array;  (** the [Reach] engine last chosen per trace *)
}

let tally n =
  { seen = Hashtbl.create 64; units = 0; raised = 0; lattice = 0; engines = Array.make n "" }

let setups = 5

(* Generate inputs in a child process, then warm up. Repeated [setups]
   times; returns the median wall and the last inputs. *)
let setup ~workload ~work ~warm =
  let once () =
    let dir = Filename.concat work "inputs" in
    Util.rm_rf dir;
    Util.run_child Sys.executable_name
      [ "gen"; workload; dir ];
    let entries = Gen.read_manifest dir in
    warm entries;
    entries
  in
  let walls = Array.make setups 0. and entries = ref [||] in
  for k = 0 to setups - 1 do
    let w, es = Util.time once in
    walls.(k) <- w;
    entries := es
  done;
  Util.note "# setup walls (s): %s"
    (String.concat " " (List.map (Printf.sprintf "%.4f") (Array.to_list walls)));
  Util.note "# live heap after setup: %.2f MB" (Util.live_heap_mb ());
  (Util.median walls, !entries)

(* Time unit [i] and fold its verdicts into [t]; the wall and the
   verdicts ([None]: the unit raised), which the caller drops. *)
let run_unit t f i =
  let wall, r = Util.time (fun () -> try Some (f i) with _ -> None) in
  t.units <- t.units + 1;
  match r with
  | None ->
    t.raised <- t.raised + 1;
    t.engines.(i) <- "error";
    (wall, None)
  | Some (r : Layers.result) ->
    t.lattice <- t.lattice + Check.lattice_violations r.Layers.races;
    t.engines.(i) <- r.Layers.engine;
    Array.iteri
      (fun j v -> Util.count t.seen (i, j, v))
      r.Layers.verdicts;
    (wall, Some r.Layers.verdicts)

(* One pass over the [n] units in seeded order: the walls, indexed by
   unit. [after i vs] sees each unit's verdicts before they are dropped. *)
let pass ?(after = fun _ _ -> ()) t st n f =
  let walls = Float.Array.make n 0. in
  Array.iter
    (fun i ->
      let w, vs = run_unit t f i in
      after i vs;
      Float.Array.set walls i w)
    (Util.shuffle st n);
  walls

let pass_wall = Float.Array.fold_left ( +. ) 0.

let failures ?(corrupt = false) spec entries t =
  let ok = spec.reference ~corrupt entries in
  Hashtbl.fold
    (fun (i, j, v) n acc -> if ok i j v then acc else acc + n)
    t.seen
    ((t.raised * List.length spec.models) + t.lattice)

let print_host ~work t =
  let by_engine = Hashtbl.create 8 in
  Array.iter
    (fun e ->
      Hashtbl.replace by_engine e
        (1 + Option.value ~default:0 (Hashtbl.find_opt by_engine e)))
    t.engines;
  let module J = Vio_util.Json in
  Util.note "# host: %s"
    (J.to_string ~indent:0
       (Util.host_json ~work
          ~extra:
            [
              ( "reach_engine_traces",
                J.Obj
                  (Hashtbl.fold (fun e n acc -> (e, J.Int n) :: acc) by_engine []
                  |> List.sort compare) );
            ]))

let run spec ~workload ~seed ~seconds ~trace ~work =
  let setup_s, entries = setup ~workload ~work ~warm:spec.warm in
  let st = Util.rng ~seed 1 in
  let n = Array.length entries and nm = List.length spec.models in
  let t = tally n in
  let untraced i = spec.untraced entries.(i) spec.models in
  let t_start = Util.now () in
  let more () = Util.now () -. t_start < seconds in
  let finish () =
    Util.note "# live heap after the timed region: %.2f MB" (Util.live_heap_mb ());
    let failed = failures spec entries t in
    print_host ~work t;
    (failed, t.units * nm)
  in
  if not trace then begin
    let rec loop acc =
      let acc = pass t st n untraced :: acc in
      if more () then loop acc else List.rev acc
    in
    let passes = loop [] in
    let peak = Util.peak_rss_mb () in
    let failed, attempted = finish () in
    Report.print_end_to_end ~work ~correct:(failed = 0) ~attempted ~failed ~setup_s ~peak
      ~verdicts:(n * nm)
      ~units:(Array.map (fun e -> e.Gen.name) entries)
      passes
  end
  else begin
    (* Untraced and traced passes alternate; the chain's verdicts must
       equal the pipeline's unit by unit. *)
    let last = Array.make n None in
    let mismatches = ref 0 in
    let sums = Hashtbl.create 64 in
    let traced_pass k =
      Span.with_ ~trace:(-1) "pass" (fun pid ->
          let walls = Float.Array.make n 0. in
          Array.iter
            (fun i ->
              let e = entries.(i) and trace = (k * 1_000_000) + i in
              Layers.codec_decode ~trace:i ~parent:pid e;
              let w, vs =
                run_unit t
                  (fun _ ->
                    Span.with_ ~trace ~parent:pid "unit" (fun uid ->
                        spec.traced ~trace ~parent:uid e spec.models))
                  i
              in
              if vs <> last.(i) then incr mismatches;
              Float.Array.set walls i w)
            (Util.shuffle st n);
          walls)
    in
    let rec loop k acc =
      let u = pass ~after:(fun i vs -> last.(i) <- vs) t st n untraced in
      let tr = traced_pass k in
      let table = Span.take () in
      Span.merge ~into:sums table;
      let acc = (u, tr, Report.layer_values table) :: acc in
      if more () then loop (k + 1) acc else List.rev acc
    in
    let runs = loop 0 [] in
    Span.write (Filename.concat work "spans.jsonl");
    let failed, attempted = finish () in
    let failed = failed + !mismatches in
    let median_pass f = Util.median (Array.of_list (List.map (fun r -> pass_wall (f r)) runs)) in
    let overhead = median_pass (fun (_, tr, _) -> tr) /. median_pass (fun (u, _, _) -> u) in
    let values =
      Report.median_of_passes (List.map (fun (_, _, v) -> v) runs)
      @ [ ("trace.overhead_ratio", overhead) ]
    in
    let p50 f = Util.median (Float.Array.map_to_array Fun.id (Float.Array.concat (List.map f runs))) in
    Shares.print ~dominant:spec.dominant sums;
    Shares.accounting ~overhead
      ~untraced_p50:(p50 (fun (u, _, _) -> u))
      ~traced_p50:(p50 (fun (_, tr, _) -> tr));
    Util.note "# samples: %d traced + %d untraced passes; %d chain/pipeline mismatches"
      (List.length runs) (List.length runs) !mismatches;
    Report.print_per_layer ~correct:(failed = 0) ~attempted ~failed values
  end
