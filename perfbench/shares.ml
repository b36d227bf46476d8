(* Where a traced unit's time went: each layer's share of the summed
   unit spans, the remainder being the benchmark's own glue. *)

let layers =
  [
    ("estore", [ "estore.build" ]);
    ("conflict", [ "conflict.detect" ]);
    ("match", [ "match.run" ]);
    ("graph", [ "graph.build" ]);
    ("reach", [ "reach.create" ]);
    ("msc.index", [ "msc.index" ]);
    ("verify", List.map (fun m -> "verify.run_ms." ^ m) Report.model_names);
    ("report", [ "report.render" ]);
  ]

(* [sums]: the span totals of every traced pass. *)
let print ~dominant sums =
  let sum = Span.get_in sums in
  let unit = sum "unit" in
  let shares =
    List.map (fun (l, ks) -> (l, List.fold_left (fun a k -> a +. sum k) 0. ks)) layers
  in
  let glue = unit -. List.fold_left (fun a (_, v) -> a +. v) 0. shares in
  let pct v = 100. *. Util.ratio v unit in
  Util.note "# layer shares of traced unit time: %s, glue %.1f%%"
    (String.concat ", "
       (List.map (fun (l, v) -> Printf.sprintf "%s %.1f%%" l (pct v)) shares))
    (pct glue);
  let top =
    fst
      (List.fold_left
         (fun (bl, bv) (l, v) -> if v > bv then (l, v) else (bl, bv))
         ("none", neg_infinity) shares)
  in
  if dominant = top then Util.note "# share check: %s dominates, as predicted" dominant
  else
    Util.note "# share check: DOES NOT MATCH: predicted %s to dominate, measured %s"
      dominant top

(* How far the traced units, less the tracing overhead, account for the
   untraced ones. *)
let accounting ~overhead ~untraced_p50 ~traced_p50 =
  Util.note
    "# span accounting: traced unit p50 %.3f ms / trace.overhead_ratio %.4f = %.3f ms; untraced unit p50 %.3f ms (%.1f%%)"
    (Util.ms traced_p50) overhead
    (Util.ms traced_p50 /. overhead)
    (Util.ms untraced_p50)
    (100. *. Util.ratio (traced_p50 /. overhead) untraced_p50)
