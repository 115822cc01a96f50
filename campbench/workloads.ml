(* The three workloads.  Each is a set-up (untimed by the item metrics,
   reported as setup_s) and a round: a fixed list of timed units that the
   measured phase repeats until its time is up.  A round does the same work
   every time — caches are cleared before each unit — so its exact counts
   (pipelines, sizes, probes) repeat, and so does the share of failed
   items. *)

module Campaign = Dce_campaign
module Corpus = Campaign.Corpus
module Bisect_campaign = Campaign.Bisect_campaign
module C = Dce_compiler
module Core = Dce_core
module Ir = Dce_ir.Ir
module Reduce = Dce_reduce

type 'r spec = {
  prepare : unit -> unit;  (** before each unit, outside its timing *)
  units : (unit -> 'r) array;  (** one round, in run order *)
  weight : 'r -> int;  (** items the unit counts for *)
  pipelines : 'r -> int;  (** full compiler pipelines the unit ran *)
  size : 'r -> int;  (** Ast size the unit leaves behind *)
  same : 'r -> 'r -> bool;  (** a later round reproduced the first *)
  check : int -> 'r -> int;
      (** failed items of unit [i], by checks that do not share code paths
          with what is timed; run once, on the first round *)
  counts : 'r -> (string * int) list;  (** per-layer counts the unit reports *)
  replay : Ledger.t -> int -> 'r -> bool;
      (** traced replay of unit [i]; false when it disagrees with [r] *)
}

type t =
  | W : {
      name : string;
      setup : work:string -> 's;
      setup_same : 's -> 's -> bool;
      spec : seed:int -> work:string -> 's -> 'r spec;
    }
      -> t

let size = Reduce.Edits.count_stmts
let gcc = C.Gcc_sim.compiler
let llvm = C.Llvm_sim.compiler
let compiler_named name = if name = gcc.C.Compiler.name then gcc else llvm
let bool_fail ok = if ok then 0 else 1

(* The seed orders a fixed list of units. *)
let shuffle ~seed a =
  let a = Array.copy a in
  let st = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let with_compile_cache (cs : C.Compiler.cache_stats) =
  [
    ("compile_cache.hits", cs.C.Compiler.cs_surviving.C.Compile_cache.hits);
    ("compile_cache.misses", cs.C.Compiler.cs_surviving.C.Compile_cache.misses);
    ("compile_cache.lower_fn_hits", cs.C.Compiler.cs_lower_fn.C.Compile_cache.hits);
    ("compile_cache.lower_fn_misses", cs.C.Compiler.cs_lower_fn.C.Compile_cache.misses);
  ]

(* ------------------------------------------------------------------ *)
(* hunt                                                                *)
(* ------------------------------------------------------------------ *)

(* Programs per round.  Per-case time varies by about a quarter between
   programs, and every seed makes other programs: 120 keep the round's
   mean and percentiles within a few percent from one seed to the next.
   A round takes longer than a run's seconds, so a run is one round. *)
let hunt_programs = 120

(* Every eighth program also has each optimized IR executed against its
   unoptimized lowering: that check costs about as much as the case. *)
let semantics_sample i = i mod 8 = 0

let hunt_case (c : Corpus.t) = c.Corpus.c_cases.(0)

let hunt_signature c =
  match hunt_case c with
  | Corpus.Quarantined _ -> `Quarantined
  | Corpus.Case (Core.Analysis.Rejected reason, _) -> `Rejected reason
  | Corpus.Case (Core.Analysis.Analyzed a, _) ->
    `Analyzed
      ( Ir.Iset.elements a.Core.Analysis.truth.Core.Ground_truth.alive,
        List.map
          (fun (pc : Core.Analysis.per_config) ->
            ( pc.Core.Analysis.cfg_compiler,
              pc.Core.Analysis.cfg_level,
              Ir.Iset.elements pc.Core.Analysis.surviving,
              Ir.Iset.elements pc.Core.Analysis.missed,
              Ir.Iset.elements pc.Core.Analysis.primary_missed ))
          a.Core.Analysis.configs )

let check_hunt i c =
  match hunt_case c with
  | Corpus.Quarantined _ -> 1
  | Corpus.Case (Core.Analysis.Rejected _, raw) ->
    (* a rejection is a result, but the reference interpreter must agree *)
    bool_fail
      (match Core.Ground_truth.compute ~exec:Dce_exec.Exec.Interp (Core.Instrument.program raw) with
       | Core.Ground_truth.Rejected _ -> true
       | Core.Ground_truth.Valid _ -> false)
  | Corpus.Case (Core.Analysis.Analyzed a, _) ->
    let truth = a.Core.Analysis.truth in
    let alive = truth.Core.Ground_truth.alive and dead = truth.Core.Ground_truth.dead in
    let interp_agrees =
      match Core.Ground_truth.compute ~exec:Dce_exec.Exec.Interp a.Core.Analysis.instrumented with
      | Core.Ground_truth.Valid t -> Ir.Iset.equal t.Core.Ground_truth.alive alive
      | Core.Ground_truth.Rejected _ -> false
    in
    let sets_hold =
      List.for_all
        (fun (pc : Core.Analysis.per_config) ->
          Ir.Iset.subset alive pc.Core.Analysis.surviving
          && Ir.Iset.equal pc.Core.Analysis.missed (Ir.Iset.inter pc.Core.Analysis.surviving dead)
          && Ir.Iset.subset pc.Core.Analysis.primary_missed pc.Core.Analysis.missed)
        a.Core.Analysis.configs
    in
    let semantics_hold =
      (not (semantics_sample i))
      ||
      let unoptimized = Dce_ir.Lower.program a.Core.Analysis.instrumented in
      List.for_all
        (fun (pc : Core.Analysis.per_config) ->
          let optimized =
            C.Compiler.compile_ir
              (compiler_named pc.Core.Analysis.cfg_compiler)
              pc.Core.Analysis.cfg_level a.Core.Analysis.instrumented
          in
          Core.Differential.semantics_preserved ~exec:Dce_exec.Exec.Interp unoptimized optimized)
        a.Core.Analysis.configs
    in
    bool_fail (interp_agrees && sets_hold && semantics_hold)

(* The warm-up runs a small fixed campaign the way a round does, so the
   first timed case does not pay for first-touch costs. *)
let hunt_warmup_seed = 1
let hunt_warmup_count = 4

let hunt =
  W
    {
      name = "hunt";
      setup =
        (fun ~work ->
          let journal = Filename.concat work "warmup.jsonl" in
          if Sys.file_exists journal then Sys.remove journal;
          ignore
            (Corpus.run ~journal ~jobs:1 ~seed:hunt_warmup_seed ~count:hunt_warmup_count ()));
      setup_same = (fun () () -> true);
      spec =
        (fun ~seed ~work () ->
          let masters = Array.of_list (Dce_smith.Smith.corpus_seeds ~seed ~count:hunt_programs) in
          (* one journal per case: a one-case campaign with master seed
             [masters.(i)], journaled like [dce_hunt hunt --journal] *)
          let journals = ref 0 in
          let journal () =
            incr journals;
            Filename.concat work (Printf.sprintf "hunt-%d.jsonl" !journals)
          in
          {
            prepare = ignore;
            units =
              Array.map
                (fun master () -> Corpus.run ~journal:(journal ()) ~jobs:1 ~seed:master ~count:1 ())
                masters;
            weight = (fun _ -> 1);
            pipelines =
              (fun c ->
                match hunt_case c with
                | Corpus.Case (Core.Analysis.Analyzed a, _) -> List.length a.Core.Analysis.configs
                | _ -> 0);
            size =
              (fun c ->
                match hunt_case c with
                | Corpus.Case (Core.Analysis.Analyzed a, _) -> size a.Core.Analysis.instrumented
                | Corpus.Case (Core.Analysis.Rejected _, raw) -> size (Core.Instrument.program raw)
                | Corpus.Quarantined _ -> 0);
            same = (fun a b -> hunt_signature a = hunt_signature b);
            check = check_hunt;
            counts = (fun _ -> []);
            replay =
              (fun l _ c ->
                match (Traced.hunt_case l ~case_seed:c.Corpus.c_seeds.(0), hunt_case c) with
                | Traced.Rejected, Corpus.Case (Core.Analysis.Rejected _, _) -> true
                | Traced.Analyzed cfgs, Corpus.Case (Core.Analysis.Analyzed a, _) ->
                  List.length cfgs = List.length a.Core.Analysis.configs
                  && List.for_all
                       (fun (name, level, surviving) ->
                         match Core.Analysis.find_config a name level with
                         | Some pc -> Ir.Iset.equal surviving pc.Core.Analysis.surviving
                         | None -> false)
                       cfgs
                | _ -> false);
          });
    }

(* ------------------------------------------------------------------ *)
(* the fixed corpus of reduce and bisect                               *)
(* ------------------------------------------------------------------ *)

(* Reduce and bisect work on findings of one fixed corpus, not of a
   seed-made one: their exact counts (pipelines, reduced size, probes)
   must repeat in every run, and findings differ too much from corpus to
   corpus (one reduction here takes half a round) for ten seeds to agree. *)
let corpus_seed = 20220228
let corpus_count = 20

let corpus_setup ~work:_ = Corpus.run ~jobs:1 ~seed:corpus_seed ~count:corpus_count ()

let corpus_same a b =
  Corpus.report ~campaign:"setup" ~seed:corpus_seed ~count:corpus_count a
  = Corpus.report ~campaign:"setup" ~seed:corpus_seed ~count:corpus_count b

(* ------------------------------------------------------------------ *)
(* reduce                                                              *)
(* ------------------------------------------------------------------ *)

let reduce_budget = 300
let o3 compiler = { Core.Differential.compiler; level = C.Level.O3; version = None }

(* A finding: a program where gcc-sim -O3 keeps a dead marker that
   llvm-sim -O3 eliminates; the lowest such marker. *)
let findings (corpus : Corpus.t) =
  List.filter_map
    (fun (i, (outcome, _)) ->
      match outcome with
      | Core.Analysis.Rejected _ -> None
      | Core.Analysis.Analyzed a -> (
        match
          (Core.Analysis.find_config a gcc.C.Compiler.name C.Level.O3,
           Core.Analysis.find_config a llvm.C.Compiler.name C.Level.O3)
        with
        | Some g, Some l ->
          Ir.Iset.min_elt_opt (Ir.Iset.diff g.Core.Analysis.missed l.Core.Analysis.surviving)
          |> Option.map (fun marker -> (i, a.Core.Analysis.instrumented, marker))
        | _ -> None))
    (Corpus.outcomes corpus)

let check_reduction ~marker (r : Reduce.Engine.result) =
  let p = r.Reduce.Engine.program in
  let keeps compiler = List.mem marker (C.Compiler.surviving_markers compiler C.Level.O3 p) in
  bool_fail
    (Result.is_ok (Dce_minic.Typecheck.check p)
    && (match Core.Ground_truth.compute ~exec:Dce_exec.Exec.Interp p with
        | Core.Ground_truth.Valid t -> Ir.Iset.mem marker t.Core.Ground_truth.dead
        | Core.Ground_truth.Rejected _ -> false)
    && keeps gcc && (not (keeps llvm))
    && r.Reduce.Engine.final_size <= r.Reduce.Engine.initial_size
    && r.Reduce.Engine.tests_run <= reduce_budget)

let reduce_counts (r : Reduce.Engine.result) =
  let s = r.Reduce.Engine.stats in
  with_compile_cache s.Reduce.Engine.s_compile
  @ List.concat_map
      (fun (sc : Reduce.Predicate.stage_count) ->
        let p = "predicate." ^ sc.Reduce.Predicate.sc_name in
        [ (p ^ ".entered", sc.Reduce.Predicate.sc_entered); (p ^ ".rejected", sc.Reduce.Predicate.sc_rejected) ])
      s.Reduce.Engine.s_stages
  @ [
      ("reduce.tests", r.Reduce.Engine.tests_run);
      ("reduce.predicate_runs", s.Reduce.Engine.s_predicate_runs);
      ("reduce.verdict_hits", s.Reduce.Engine.s_cache.C.Compile_cache.hits);
      ("reduce.rounds", r.Reduce.Engine.rounds);
    ]

let reduce =
  W
    {
      name = "reduce";
      setup = corpus_setup;
      setup_same = corpus_same;
      spec =
        (fun ~seed ~work:_ corpus ->
          let order = shuffle ~seed (Array.of_list (findings corpus)) in
          let reduce_with predicate prog =
            Reduce.Engine.reduce ~max_tests:reduce_budget ~jobs:1 ~predicate prog
          in
          {
            prepare = C.Compiler.clear_caches;
            units =
              Array.map
                (fun (_, prog, marker) () ->
                  reduce_with
                    (Reduce.Predicate.marker_diff ~compile_cache:true ~keep_missed_by:(o3 gcc)
                       ~eliminated_by:(o3 llvm) ~marker ())
                    prog)
                order;
            weight = (fun _ -> 1);
            pipelines = (fun r -> r.Reduce.Engine.stats.Reduce.Engine.s_pipelines_run);
            size = (fun r -> r.Reduce.Engine.final_size);
            same =
              (fun a b ->
                a.Reduce.Engine.program = b.Reduce.Engine.program
                && a.Reduce.Engine.tests_run = b.Reduce.Engine.tests_run
                && a.Reduce.Engine.rounds = b.Reduce.Engine.rounds);
            check =
              (fun i r ->
                let _, _, marker = order.(i) in
                check_reduction ~marker r);
            counts = reduce_counts;
            replay =
              (fun l i r ->
                let _, prog, marker = order.(i) in
                let m = Traced.memo () in
                let r' = reduce_with (Traced.marker_diff l m ~marker) prog in
                r'.Reduce.Engine.program = r.Reduce.Engine.program
                && r'.Reduce.Engine.tests_run = r.Reduce.Engine.tests_run
                && Traced.pipelines m = r.Reduce.Engine.stats.Reduce.Engine.s_pipelines_run);
          });
    }

(* ------------------------------------------------------------------ *)
(* bisect                                                              *)
(* ------------------------------------------------------------------ *)

(* One unit bisects every missed -O3 marker of one case: the campaign run
   over a one-case corpus.  Sibling markers of a case share compiles
   through the cache, so a pair's time is its case's time shared evenly. *)
type bisect_unit = {
  b : Bisect_campaign.t;
  cache : C.Compiler.cache_stats;
  prog : Dce_minic.Ast.program;
}

let case_reports u =
  Array.to_list u.b.Bisect_campaign.b_cases
  |> List.concat_map (function
       | Campaign.Engine.Done r -> r.Bisect_campaign.br_bisections
       | Campaign.Engine.Crashed _ -> [])

let quarantined u = u.b.Bisect_campaign.b_quarantine <> []

(* Commits carry functions, so bisections compare by commit id. *)
let bisect_signature u =
  ( quarantined u,
    List.map
      (fun (bs : Bisect_campaign.bisection) ->
        ( bs.Bisect_campaign.bs_compiler,
          bs.Bisect_campaign.bs_marker,
          bs.Bisect_campaign.bs_probes,
          match bs.Bisect_campaign.bs_outcome with
          | Dce_bisect.Bisect.Regression reg ->
            Some (reg.Dce_bisect.Bisect.offending.C.Version.id, reg.Dce_bisect.Bisect.offending_index)
          | Dce_bisect.Bisect.Always_missed | Dce_bisect.Bisect.Not_missed -> None ))
      (case_reports u) )

let check_bisect u =
  if quarantined u then u.b.Bisect_campaign.b_pairs
  else
    let memo = Hashtbl.create 16 in
    let eliminates compiler version marker =
      let key = (compiler.C.Compiler.name, version) in
      let surviving =
        match Hashtbl.find_opt memo key with
        | Some s -> s
        | None ->
          let s = C.Compiler.surviving_markers compiler ~version C.Level.O3 u.prog in
          Hashtbl.add memo key s;
          s
      in
      not (List.mem marker surviving)
    in
    List.fold_left
      (fun failed (bs : Bisect_campaign.bisection) ->
        match bs.Bisect_campaign.bs_outcome with
        | Dce_bisect.Bisect.Regression reg ->
          let compiler = compiler_named bs.Bisect_campaign.bs_compiler in
          let marker = bs.Bisect_campaign.bs_marker in
          let idx = reg.Dce_bisect.Bisect.offending_index in
          failed
          + bool_fail
              (eliminates compiler reg.Dce_bisect.Bisect.last_good marker
              && (not (eliminates compiler idx marker))
              && idx = reg.Dce_bisect.Bisect.last_good + 1
              && reg.Dce_bisect.Bisect.offending.C.Version.id
                 = (List.nth compiler.C.Compiler.history (idx - 1)).C.Version.id)
        | Dce_bisect.Bisect.Always_missed | Dce_bisect.Bisect.Not_missed -> failed)
      0 (case_reports u)

let replay_bisect l u =
  let m = Traced.memo () in
  List.for_all
    (fun (bs : Bisect_campaign.bisection) ->
      let got, probes =
        Traced.bisect l m (compiler_named bs.Bisect_campaign.bs_compiler) C.Level.O3 u.prog
          ~marker:bs.Bisect_campaign.bs_marker
      in
      let expected =
        match bs.Bisect_campaign.bs_outcome with
        | Dce_bisect.Bisect.Regression reg -> Some reg.Dce_bisect.Bisect.offending_index
        | Dce_bisect.Bisect.Always_missed | Dce_bisect.Bisect.Not_missed -> None
      in
      got = expected && probes = bs.Bisect_campaign.bs_probes)
    (case_reports u)
  && Traced.pipelines m = u.cache.C.Compiler.cs_surviving.C.Compile_cache.misses

let bisect =
  W
    {
      name = "bisect";
      setup = corpus_setup;
      setup_same = corpus_same;
      spec =
        (fun ~seed ~work:_ corpus ->
          let cases =
            List.filter_map
              (fun (i, (outcome, _)) ->
                match outcome with
                | Core.Analysis.Analyzed a
                  when List.exists
                         (fun (pc : Core.Analysis.per_config) ->
                           pc.Core.Analysis.cfg_level = C.Level.O3
                           && not (Ir.Iset.is_empty pc.Core.Analysis.missed))
                         a.Core.Analysis.configs ->
                  Some (i, a.Core.Analysis.instrumented)
                | _ -> None)
              (Corpus.outcomes corpus)
          in
          let one_case i =
            {
              corpus with
              Corpus.c_count = 1;
              c_seeds = [| corpus.Corpus.c_seeds.(i) |];
              c_cases = [| corpus.Corpus.c_cases.(i) |];
              c_quarantine = [];
            }
          in
          {
            prepare = C.Compiler.clear_caches;
            units =
              Array.map
                (fun (i, prog) ->
                  let sub = one_case i in
                  fun () ->
                    let b = Bisect_campaign.run ~jobs:1 sub in
                    { b; cache = C.Compiler.cache_stats (); prog })
                (shuffle ~seed (Array.of_list cases));
            weight = (fun u -> u.b.Bisect_campaign.b_pairs);
            pipelines = (fun u -> u.cache.C.Compiler.cs_surviving.C.Compile_cache.misses);
            size = (fun u -> size u.prog);
            same = (fun x y -> bisect_signature x = bisect_signature y);
            check = (fun _ u -> check_bisect u);
            counts =
              (fun u ->
                with_compile_cache u.cache
                @ [
                    ("bisect.pairs", u.b.Bisect_campaign.b_pairs);
                    ("bisect.probes", u.b.Bisect_campaign.b_probes);
                  ]);
            replay = (fun l _ u -> replay_bisect l u);
          });
    }

let all = [ hunt; reduce; bisect ]
