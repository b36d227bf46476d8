(* Entry point. [python3 perfbench/run.py] builds this executable and
   calls it; see perfbench/README.md for the workloads and metrics.

   perfbench run --workload W --seed N --seconds S --trace 0|1 --cli EXE
   perfbench gen W DIR                   (inputs of one workload, as files)
   perfbench wide-reference              (rewrite the committed reference)
   perfbench selftest --cli EXE          (corrupted references must fail) *)

module V = Verifyio

let all_models () = V.Model.all ()

let wide_spec () =
  let models = all_models () in
  {
    Inproc.models;
    untraced = Layers.pipeline;
    traced = Layers.chain;
    (* The smallest program only: the full pass takes several seconds. *)
    warm = (fun es -> ignore (Layers.pipeline es.(0) models));
    reference =
      (fun ~corrupt entries ->
        let r = Check.load_wide Check.wide_reference_file in
        if corrupt then begin
          let k = (entries.(0).Gen.name, "POSIX") in
          Hashtbl.replace r k (Check.corrupt (Hashtbl.find r k))
        end;
        fun i j v ->
          let m = List.nth models j in
          Hashtbl.find_opt r (entries.(i).Gen.name, m.V.Model.name) = Some v);
    dominant = "verify";
  }

let work_dir name =
  let d = Util.abs (Filename.concat ".perfbench_work" name) in
  Util.mkdir_p d;
  d

(* ---- the committed wide reference ---- *)

(* The oracle confirms the entries of the programs with this many ranks;
   at more ranks it is too slow. *)
let oracle_ranks = [ 64; 96 ]

let wide_reference () =
  let work = work_dir "wide-reference" in
  let dir = Filename.concat work "inputs" in
  Util.rm_rf dir;
  Gen.run ~workload:"wide" dir;
  let entries = Gen.read_manifest dir in
  let models = all_models () in
  let lines =
    Array.to_list entries
    |> List.concat_map (fun (e : Gen.entry) ->
           let r = Layers.pipeline e models in
           let oracle =
             if List.mem e.Gen.nranks oracle_ranks then begin
               let nranks, records = Recorder.Codec.of_file e.Gen.path in
               Some (V.Oracle.verify ~models ~nranks records)
             end
             else None
           in
           List.mapi
             (fun j (m : V.Model.t) ->
               let v = r.Layers.verdicts.(j) in
               let source =
                 match oracle with
                 | None -> "seed-pipeline"
                 | Some o ->
                   if Check.of_oracle (List.assq m o) <> v then
                     failwith
                       (Printf.sprintf "oracle disagrees on %s under %s" e.Gen.name
                          m.V.Model.name);
                   "oracle"
               in
               Printf.sprintf "%s\t%s\t%d\t%d\t%d\t%s" e.Gen.name m.V.Model.name
                 v.Check.races v.Check.digest v.Check.unmatched source)
             models)
  in
  Util.write_file Check.wide_reference_file
    (String.concat "\n"
       ([
          "# Wide-workload reference verdicts: program, model, races, digest of";
          "# the first 500 race pairs, unmatched calls, source. Source [oracle]:";
          "# the brute-force Oracle.verify agreed; [seed-pipeline]: the";
          "# pipeline's verdict when the benchmark was defined (regression";
          "# reference; the oracle is too slow at these rank counts).";
          "# Regenerate: dune exec perfbench/perfbench.exe -- wide-reference";
        ]
       @ lines)
    ^ "\n")

(* ---- the self-test: a corrupted reference must fail ---- *)

let selftest ~cli =
  let ok = ref true in
  let report name good bad =
    let pass = good = 0 && bad > 0 in
    if not pass then ok := false;
    Util.note "selftest %-7s true reference: %d failures; corrupted reference: %d failures  %s"
      name good bad (if pass then "ok" else "FAILED")
  in
  (* One pass over the smallest wide program, checked against the true
     and a corrupted reference. *)
  (let spec = wide_spec () in
   let dir = Filename.concat (work_dir "selftest-wide") "inputs" in
   Util.rm_rf dir;
   Gen.run ~workload:"wide" dir;
   let entries = Array.sub (Gen.read_manifest dir) 0 1 in
   let t = Inproc.tally 1 in
   ignore
     (Inproc.pass t (Util.rng ~seed:1 0) 1 (fun i ->
          spec.Inproc.untraced entries.(i) spec.Inproc.models));
   report "wide" (Inproc.failures spec entries t) (Inproc.failures ~corrupt:true spec entries t));
  (let good, bad = Serve_load.selftest ~work:(work_dir "selftest-serve") ~cli in
   report "serve" good bad);
  if not !ok then exit 1

(* ---- command line ---- *)

let usage () =
  prerr_endline
    "usage: perfbench run --workload W --seed N --seconds S --trace 0|1 --cli EXE\n\
    \       perfbench gen W DIR\n\
    \       perfbench wide-reference\n\
    \       perfbench selftest --cli EXE";
  exit 2

let flag args name =
  let rec go = function
    | k :: v :: _ when k = name -> Some v
    | _ :: tl -> go tl
    | [] -> None
  in
  go args

let () =
  match Array.to_list Sys.argv with
  | _ :: "gen" :: workload :: dir :: _ -> Gen.run ~workload dir
  | _ :: "wide-reference" :: _ -> wide_reference ()
  | _ :: "selftest" :: rest -> (
    match flag rest "--cli" with Some cli -> selftest ~cli | None -> usage ())
  | _ :: "run" :: rest -> (
    let get k = match flag rest k with Some v -> v | None -> usage () in
    let workload = get "--workload" in
    let seed = int_of_string (get "--seed") in
    let seconds = float_of_string (get "--seconds") in
    let trace = get "--trace" = "1" in
    let work = work_dir workload in
    match workload with
    | "serve" -> Serve_load.run ~seed ~seconds ~trace ~work ~cli:(get "--cli")
    | "wide" -> Inproc.run (wide_spec ()) ~workload ~seed ~seconds ~trace ~work
    | _ -> usage ())
  | _ -> usage ()
