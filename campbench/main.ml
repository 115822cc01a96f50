(* The campaign benchmark.

     main.exe --workload hunt|reduce|bisect --seed N --seconds S --trace 0|1

   prints a readable report and, as its last line, one JSON object with
   the attempted and failed item counts and the metrics: end-to-end ones
   with --trace 0, the per-layer ledger with --trace 1.  See README.md. *)

open Workloads

let now = Unix.gettimeofday

(* Set-up runs this many times per measured run; setup_s is the median. *)
let setup_reps = 3

(* item_tail_ms needs ten samples beyond it and at least forty in all, so
   the measured phase runs whole rounds until it has both its time and
   this many items. *)
let min_items = 40

(* A run must end within three minutes whatever the machine's speed. *)
let max_measure_s = 120.

let median = Drift.median

(* The highest percentile with at least ten samples beyond it. *)
let tail a =
  let a = Array.copy a in
  Array.sort compare a;
  a.(Array.length a - 11)

let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | status ->
    List.find_map
      (fun line ->
        Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.))
      (String.split_on_char '\n' status)
    |> Option.value ~default:nan
  | exception Sys_error _ -> nan

type metric = Float of float * string | Int of int * string

let json_metric (name, m) =
  match m with
  | Float (v, unit) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit
  | Int (v, unit) -> Printf.sprintf "%S: {\"value\": %d, \"unit\": %S}" name v unit

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun (name, m) ->
      match m with
      | Float (v, unit) -> Printf.printf "  %-34s %14.6f %s\n" name v unit
      | Int (v, unit) -> Printf.printf "  %-34s %14d %s\n" name v unit)
    metrics;
  Printf.printf "  attempted %d, failed %d, correct %b\n" attempted failed correct;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed
    (String.concat ", " (List.map json_metric metrics))

(* Unit outcomes of the first round, with independent checks applied. *)
let checked_failures spec first = Array.mapi (fun i r -> min (spec.weight r) (spec.check i r)) first

let sum_over first f = Array.fold_left (fun acc r -> acc + f r) 0 first

(* ------------------------------------------------------------------ *)
(* --trace 0: end-to-end metrics                                       *)
(* ------------------------------------------------------------------ *)

let measure d spec ~seconds =
  let n = Array.length spec.units in
  let first = Array.make n None in
  let samples = ref [] in
  let items = ref 0 and rounds = ref 0 in
  let t0 = now () in
  let wanted () =
    let elapsed = now () -. t0 in
    !rounds = 0 || ((elapsed < seconds || !items < min_items) && elapsed < max_measure_s)
  in
  while wanted () do
    let before = !items in
    Array.iteri
      (fun i u ->
        spec.prepare ();
        let r, s = Drift.time d u in
        let w = spec.weight r in
        items := !items + w;
        let same = match first.(i) with None -> first.(i) <- Some r; true | Some r0 -> spec.same r0 r in
        samples := (i, w, same, s) :: !samples)
      spec.units;
    incr rounds;
    if !items = before then failwith "a round of this workload has no items"
  done;
  (* before the checks, which are not the workload's *)
  let rss = peak_rss_mb () in
  (Array.map Option.get first, List.rev !samples, !rounds, rss)

let end_to_end d spec ~seconds ~setups ~setup_ok =
  let first, samples, rounds, rss = measure d spec ~seconds in
  Drift.finish d;
  let fails = checked_failures spec first in
  let attempted = List.fold_left (fun acc (_, w, _, _) -> acc + w) 0 samples in
  let failed =
    List.fold_left (fun acc (i, w, same, _) -> acc + if same then fails.(i) else w) 0 samples
  in
  (* each unit's time is the median over the rounds, so one disturbed
     round does not move it *)
  let unit_time =
    Array.mapi
      (fun i _ ->
        median
          (Array.of_list
             (List.filter_map (fun (j, _, _, s) -> if i = j then Some (Drift.corrected d s) else None) samples)))
      first
  in
  let weights = Array.map spec.weight first in
  let round_items = Array.fold_left ( + ) 0 weights in
  (* The item distribution of a round, one entry per item (a unit's time
     shared among its items), taken as many times as it takes rounds to
     reach [min_items]: a fixed count, so the tail percentile lands on the
     same unit whatever the number of rounds the machine's speed allowed. *)
  let per_item =
    let one_round =
      List.concat
        (List.init (Array.length first) (fun i ->
             List.init weights.(i) (fun _ -> unit_time.(i) /. float_of_int weights.(i))))
    in
    Array.of_list (List.concat (List.init ((min_items + round_items - 1) / round_items) (fun _ -> one_round)))
  in
  let round_time = Array.fold_left ( +. ) 0. unit_time in
  let raw_total = List.fold_left (fun acc (_, _, _, s) -> acc +. s.Drift.s_raw) 0. samples in
  let ref_total = List.fold_left (fun acc (_, _, _, s) -> acc +. Drift.corrected d s) 0. samples in
  let setup_ref = median (Array.of_list (List.map (Drift.corrected d) setups)) in
  let setup_raw = median (Array.of_list (List.map (fun s -> s.Drift.s_raw) setups)) in
  Printf.printf "  %d rounds of %d units; %d items\n" rounds (Array.length first) attempted;
  Printf.printf "  item time: %.3f raw s, %.3f reference s (reference run median %.5f s, nominal %.5f s)\n"
    raw_total ref_total
    (median (Drift.reference_times d))
    Campbench_ref.Refwork.nominal_s;
  Printf.printf "  setup: %.3f raw s, %.3f reference s (median of %d)\n" setup_raw setup_ref
    (List.length setups);
  let metrics =
    [
      ("setup_s", Float (setup_ref, "s"));
      ("items_per_s", Float (float_of_int round_items /. round_time, "1/ref_s"));
      ("item_p50_ms", Float (1000. *. median per_item, "ref_ms"));
      ("item_tail_ms", Float (1000. *. tail per_item, "ref_ms"));
      ("peak_rss_mb", Float (rss, "MB"));
      ("pipelines", Int (sum_over first spec.pipelines, "count"));
      ("reduced_size", Int (sum_over first spec.size, "ast_size"));
    ]
  in
  print_result ~correct:setup_ok ~attempted ~failed metrics

(* ------------------------------------------------------------------ *)
(* --trace 1: the per-layer ledger                                     *)
(* ------------------------------------------------------------------ *)

let layer_times =
  [ "smith.self_s"; "instrument.self_s"; "exec.self_s"; "lower.self_s"; "passmgr.bookkeeping_s" ]
  @ List.map (fun p -> "pass." ^ p ^ ".self_s") (Traced.named_passes @ [ "other" ])
  @ [ "codegen.self_s"; "asm.scan_s"; "primary.self_s" ]
  @ List.map (fun s -> "predicate." ^ s ^ ".self_s") Traced.predicate_stages

let layer_counts =
  [
    ("exec.runs", "count");
    ("exec.steps", "steps");
    ("passmgr.pass_runs", "count");
    ("passmgr.pass_changed", "count");
    ("passmgr.analyses_computed", "count");
    ("passmgr.analyses_reused", "count");
    ("pass.simplify-cfg.runs", "count");
    ("pass.ssa.runs", "count");
    ("compile_cache.hits", "count");
    ("compile_cache.misses", "count");
    ("compile_cache.lower_fn_hits", "count");
    ("compile_cache.lower_fn_misses", "count");
  ]
  @ List.concat_map
      (fun s -> [ ("predicate." ^ s ^ ".entered", "count"); ("predicate." ^ s ^ ".rejected", "count") ])
      Traced.predicate_stages
  @ List.map
      (fun n -> (n, "count"))
      [ "reduce.tests"; "reduce.predicate_runs"; "reduce.verdict_hits"; "reduce.rounds"; "bisect.pairs"; "bisect.probes" ]

let analyses (c : Dce_compiler.Passmgr.counters) =
  let open Dce_compiler.Passmgr in
  (c.meminfo_misses + c.cfg_misses + c.dom_misses, c.meminfo_hits + c.cfg_hits + c.dom_hits)

let per_layer d spec ~setup_ok =
  (* each unit runs untraced and then traced, back to back, so the two
     see the same heap and the same machine *)
  let pairs =
    Array.mapi
      (fun i u ->
        spec.prepare ();
        let r, untraced = Drift.time d u in
        spec.prepare ();
        let l = Ledger.create () in
        let computed0, reused0 = analyses (Dce_compiler.Passmgr.counters ()) in
        let ok, traced = Drift.time d (fun () -> spec.replay l i r) in
        let computed1, reused1 = analyses (Dce_compiler.Passmgr.counters ()) in
        Ledger.count l "passmgr.analyses_computed" (computed1 - computed0);
        Ledger.count l "passmgr.analyses_reused" (reused1 - reused0);
        List.iter (fun (k, v) -> Ledger.count l k v) (spec.counts r);
        (r, untraced, (l, ok, traced)))
      spec.units
  in
  Drift.finish d;
  let first = Array.map (fun (r, _, _) -> r) pairs in
  let untraced = Array.map (fun (_, s, _) -> s) pairs in
  let traced = Array.map (fun (_, _, t) -> t) pairs in
  let acc = Ledger.create () in
  Array.iter (fun (l, _, s) -> Ledger.into acc ~scale:(Drift.scale d s) l) traced;
  let wall f = Array.fold_left (fun a x -> a +. Drift.corrected d (f x)) 0. in
  let untraced_s = wall Fun.id untraced and traced_s = wall (fun (_, _, s) -> s) traced in
  let covered = Ledger.total_time acc in
  let replays_agree = Array.for_all (fun (_, ok, _) -> ok) traced in
  if not replays_agree then print_endline "  a traced replay disagreed with the campaign";
  let fails = checked_failures spec first in
  Printf.printf "  untraced %.3f ref s, traced %.3f ref s, layers cover %.3f ref s\n" untraced_s traced_s
    covered;
  let metrics =
    List.map (fun n -> (n, Float (Ledger.time acc n, "ref_s"))) layer_times
    @ [
        ("campaign.residual_s", Float (untraced_s -. covered, "ref_s"));
        ("trace.untraced_s", Float (untraced_s, "ref_s"));
        ("trace.overhead_s", Float (traced_s -. untraced_s, "ref_s"));
      ]
    @ List.map (fun (n, unit) -> (n, Int (Ledger.get_count acc n, unit))) layer_counts
  in
  print_result ~correct:(setup_ok && replays_agree)
    ~attempted:(sum_over first spec.weight)
    ~failed:(Array.fold_left ( + ) 0 fails)
    metrics

(* ------------------------------------------------------------------ *)
(* entry point                                                         *)
(* ------------------------------------------------------------------ *)

(* Journals go to a work directory inside the checkout, removed on exit. *)
let work_root = ".campbench-work"

let run (W w) ~seed ~seconds ~trace =
  let work = Filename.concat work_root (Printf.sprintf "%s-%d" w.name (Unix.getpid ())) in
  Dce_support.Fsx.mkdir_p work;
  Fun.protect
    ~finally:(fun () ->
      Dce_support.Fsx.rm_rf work;
      try Sys.rmdir work_root with Sys_error _ -> ())
    (fun () ->
      let d = Drift.create () in
      (* only the first set-up's result is kept: the others are compared
         with it and dropped, so they do not add to the peak memory *)
      let state = ref None and setup_ok = ref true in
      let setups =
        List.init (if trace then 1 else setup_reps) (fun _ ->
            let s, sample = Drift.time ~refs:Drift.half_window d (fun () -> w.setup ~work) in
            (match !state with
             | None -> state := Some s
             | Some first -> if not (w.setup_same first s) then setup_ok := false);
            sample)
      in
      let state = Option.get !state and setup_ok = !setup_ok in
      if not setup_ok then print_endline "  set-up gave different results on repetition";
      (* every measured phase starts from a compacted heap *)
      Gc.compact ();
      let spec = w.spec ~seed ~work state in
      Printf.printf "workload %s, seed %d, %s\n%!" w.name seed
        (if trace then "traced" else Printf.sprintf "%.0f s" seconds);
      if trace then per_layer d spec ~setup_ok
      else end_to_end d spec ~seconds ~setups ~setup_ok)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1.) and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " hunt | reduce | bisect");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured time");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer ledger");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  let usage msg =
    prerr_endline msg;
    exit 2
  in
  let w =
    match List.find_opt (fun (W w) -> w.name = !workload) Workloads.all with
    | Some w -> w
    | None -> usage "--workload must be hunt, reduce or bisect"
  in
  if !seed < 0 then usage "--seed must be given and non-negative";
  if !seconds <= 0. then usage "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then usage "--trace must be 0 or 1";
  run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
