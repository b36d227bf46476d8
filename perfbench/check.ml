(* Verdict references and the checks that feed [failed]. A verdict is
   kept as three integers, so the measuring process never holds an
   outcome longer than it takes to read these numbers. *)

module V = Verifyio

type verdict = { races : int; digest : int; unmatched : int }

(* Order-sensitive digest of the first [Serve.Cache.max_race_pairs]
   race pairs — the part of a race list a service response carries, so
   in-process and service verdicts digest alike. *)
let digest pairs =
  let rec go h i = function
    | [] -> h
    | _ when i >= Serve.Cache.max_race_pairs -> h
    | (x, y) :: tl ->
      go ((((h * 1_000_003) + x) * 1_000_003) + y) (i + 1) tl
  in
  go 17 0 pairs

let race_pairs (o : V.Pipeline.outcome) =
  List.map (fun (r : V.Verify.race) -> (r.V.Verify.rx, r.V.Verify.ry)) o.V.Pipeline.races

let of_outcome (o : V.Pipeline.outcome) =
  {
    races = o.V.Pipeline.race_count;
    digest = digest (race_pairs o);
    unmatched = List.length o.V.Pipeline.unmatched;
  }

let of_oracle (v : V.Oracle.verdict) =
  {
    races = List.length v.V.Oracle.races;
    digest = digest v.V.Oracle.races;
    unmatched = v.V.Oracle.unmatched;
  }

(* ---- reference sources ---- *)

(* The brute-force oracle over every trace and model, run from the
   trace files (after the timed region: about a second on the corpus). *)
let oracle (entries : Gen.entry array) models =
  Array.map
    (fun (e : Gen.entry) ->
      let nranks, records = Recorder.Codec.of_file e.Gen.path in
      Array.of_list (List.map (fun (_, v) -> of_oracle v) (V.Oracle.verify ~models ~nranks records)))
    entries

(* The paper's expectation for a corpus execution under one of the four
   builtin models; [true] for a model it says nothing about. *)
let meets_expectation (e : Gen.entry) (m : V.Model.t) v =
  let x = Gen.expectation_of_string e.Gen.extra in
  let raceless = v.races = 0 in
  if not (List.memq m V.Model.builtin) then true
  else
    (v.unmatched > 0) = x.Workloads.Harness.exp_unmatched
    && (x.Workloads.Harness.exp_unmatched
       || if m == V.Model.posix then raceless = x.Workloads.Harness.exp_posix
          else raceless = x.Workloads.Harness.exp_relaxed)

(* ---- the wide workload's committed reference ---- *)

(* One line per (program, model): name, model, races, digest,
   unmatched, source.
   [source] is [oracle] where the brute-force oracle produced the entry
   and [seed-pipeline] where it is the pipeline's verdict when the
   benchmark was defined, kept as a regression reference (the oracle
   needs minutes per model on these traces). *)
let wide_reference_file = "perfbench/wide_reference.tsv"

let load_wide path =
  let t = Hashtbl.create 32 in
  List.iter
    (fun l ->
      if l <> "" && l.[0] <> '#' then
        match String.split_on_char '\t' l with
        | [ name; model; races; digest; unmatched; _source ] ->
          Hashtbl.replace t (name, model)
            {
              races = int_of_string races;
              digest = int_of_string digest;
              unmatched = int_of_string unmatched;
            }
        | _ -> failwith ("bad reference line: " ^ l))
    (Util.read_lines path);
  t

(* The self-test's corruption: one race too many. *)
let corrupt v = { v with races = v.races + 1 }

(* ---- the lattice invariant ---- *)

(* [implies m1 m2] promises races(m2) ⊆ races(m1). Returns the number
   of model pairs whose verdicts break it. *)
let lattice_violations (per_model : (V.Model.t * (int * int) list) list) =
  List.fold_left
    (fun n (m1, r1) ->
      let in_r1 = Hashtbl.create (List.length r1) in
      List.iter (fun p -> Hashtbl.replace in_r1 p ()) r1;
      List.fold_left
        (fun n (m2, r2) ->
          if m1 != m2 && V.Model.implies m1 m2
             && not (List.for_all (Hashtbl.mem in_r1) r2)
          then n + 1
          else n)
        n per_model)
    0 per_model
