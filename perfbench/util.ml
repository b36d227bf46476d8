(* Small helpers shared by the workloads: clocks, statistics, files,
   process memory and the host record. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (now () -. t0, v)

(* Linear-interpolation percentile; [nan] on no samples. *)
let pct xs p =
  if Array.length xs = 0 then Float.nan
  else Vio_util.Stats.percentile xs p

let median xs = pct xs 50.

let ms s = s *. 1000.

let ratio a b = if b = 0. then 0. else a /. b

(* Add one to [k]'s count in [t]. *)
let count t k = Hashtbl.replace t k (1 + Option.value ~default:0 (Hashtbl.find_opt t k))

(* A seeded permutation of [0 .. n-1] (Fisher-Yates). *)
let shuffle st n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let rng ~seed salt = Random.State.make [| seed; salt |]

(* ---- files ---- *)

let mkdir_p = Vio_util.Fsio.ensure_dir

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let abs path =
  if Filename.is_relative path then Filename.concat (Sys.getcwd ()) path
  else path

(* ---- processes ---- *)

(* A [/proc/<pid>/status] field in kB, e.g. [VmHWM] (peak resident set). *)
let status_kb ?(pid = "self") field =
  match read_lines (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> 0
  | lines ->
    List.fold_left
      (fun acc l ->
        match String.split_on_char ':' l with
        | [ k; v ] when k = field ->
          (match String.split_on_char ' ' (String.trim v) with
          | n :: _ -> int_of_string n
          | [] -> acc)
        | _ -> acc)
      0 lines

let peak_rss_mb ?pid () =
  let pid = Option.map string_of_int pid in
  float_of_int (status_kb ?pid "VmHWM") /. 1024.

(* Spawn a process and wait for it; [Failure] unless it exits 0. *)
let run_child prog args =
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin Unix.stdout
      Unix.stderr
  in
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith (Printf.sprintf "%s %s failed" prog (String.concat " " args))

(* Words the harness itself keeps alive, after a full collection. *)
let live_heap_mb () =
  Gc.compact ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1048576.

(* ---- the host record ---- *)

(* The filesystem type of the longest mount point that prefixes [dir]. *)
let fs_of dir =
  let dir = abs dir in
  let best = ref ("", "unknown") in
  (try
     List.iter
       (fun l ->
         match String.split_on_char ' ' l with
         | _ :: mnt :: fstype :: _ ->
           let prefix =
             mnt = "/"
             || String.length dir >= String.length mnt
                && String.sub dir 0 (String.length mnt) = mnt
           in
           if prefix && String.length mnt >= String.length (fst !best) then
             best := (mnt, fstype)
         | _ -> ())
       (read_lines "/proc/mounts")
   with Sys_error _ -> ());
  snd !best

(* Processors online. Not [Domain.recommended_domain_count], which
   counts only the processors this process may run on, and run.py pins
   each process to one at a time. *)
let nproc () =
  match read_lines "/proc/cpuinfo" with
  | exception Sys_error _ -> Domain.recommended_domain_count ()
  | lines ->
    List.length
      (List.filter (fun l -> String.length l >= 9 && String.sub l 0 9 = "processor") lines)

let host_json ~work ~extra =
  let module J = Vio_util.Json in
  J.Obj
    ([
       ("nproc", J.Int (nproc ()));
       ("ocaml", J.Str Sys.ocaml_version);
       ( "ocamlrunparam",
         match Sys.getenv_opt "OCAMLRUNPARAM" with
         | Some v -> J.Str v
         | None -> J.Null );
       ("work_fs", J.Str (fs_of work));
       ("domains", J.Int 1);
       ( "parallel_walls",
         J.Str
           "omitted: every wall is single-domain (in-process runs use no \
            extra domain, children run with --domains 1), so no speedup \
            is measured" );
     ]
    @ extra)

(* ---- the result line ---- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* The last line of stdout: the one result object the benchmark
   contract defines. Values keep every digit ([%.17g]). *)
let print_result ~correct ~attempted ~failed metrics =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let fields =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (num x.value)
          x.unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " fields)

let note fmt = Printf.ksprintf (fun s -> print_string s; print_newline ()) fmt
