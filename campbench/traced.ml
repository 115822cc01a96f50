(* The traced replay: the work of one measured item, redone through the
   layers' public calls with a span around each, so every layer's self
   time is measured where the work happens.  Each replay returns what the
   campaign computed the first time round, and the caller checks the two
   agree — a replay that diverged would time different work. *)

module C = Dce_compiler
module Core = Dce_core
module Ast = Dce_minic.Ast
module Ir = Dce_ir.Ir
module Lower = Dce_ir.Lower
module Predicate = Dce_reduce.Predicate

(* Passes with a metric of their own; the rest are booked as "other". *)
let named_passes = [ "simplify-cfg"; "sccp"; "ssa"; "memcp"; "gvn"; "vrp"; "dce"; "peephole"; "unroll" ]

let pass_bucket label = if List.mem label named_passes then label else "other"

(* One pipeline: the passes' own clocks (the stage trace) are booked per
   pass; what remains of the call is pass-manager bookkeeping. *)
let passes l feats ir =
  Ledger.span l "passmgr.bookkeeping_s" (fun () ->
      let ir, trace = C.Pipeline.run_traced feats ir in
      List.iter
        (fun (sr : C.Passmgr.stage_record) ->
          let bucket = pass_bucket sr.C.Passmgr.sr_label in
          Ledger.child_time l ("pass." ^ bucket ^ ".self_s") sr.C.Passmgr.sr_time;
          Ledger.count l "passmgr.pass_runs" 1;
          if sr.C.Passmgr.sr_changed then Ledger.count l "passmgr.pass_changed" 1;
          if bucket = "simplify-cfg" || bucket = "ssa" then Ledger.count l ("pass." ^ bucket ^ ".runs") 1)
        trace;
      ir)

let optimize_and_scan l ~compiler ~version level ir =
  let ir = passes l (C.Compiler.features compiler ~version level) ir in
  let asm = Ledger.span l "codegen.self_s" (fun () -> Dce_backend.Codegen.program ir) in
  Ledger.span l "asm.scan_s" (fun () ->
      ignore (Dce_backend.Asm.size asm);
      Dce_backend.Asm.surviving_markers asm)

(* {1 Uncached compiles: the hunt's differential phase} *)

let compile l ~compiler level ast =
  let ir = Ledger.span l "lower.self_s" (fun () -> Lower.program ast) in
  optimize_and_scan l ~compiler ~version:(C.Compiler.head compiler) level ir

(* {1 Cached compiles: reduce and bisect}

   The library's compile cache is private to it, so the replay keeps a
   table of its own with the same keys: the whole compile by (compiler,
   version, level, program), lowering by (global environment, function).
   The replay then runs a pipeline exactly when the library's cache
   missed, which the caller checks against the library's own counters. *)

type memo = {
  whole : (string * int * C.Level.t * Ast.program, int list) C.Compile_cache.t;
  lower_fn : ((string * Ast.typ) list * Ast.func, Ir.func * Ir.symbol list) C.Compile_cache.t;
}

let memo () =
  {
    whole =
      C.Compile_cache.create
        ~hash:(fun (name, v, level, prog) -> Hashtbl.hash (name, v, level) lxor Ast.hash_program prog)
        ~equal:( = ) ();
    lower_fn =
      C.Compile_cache.create
        ~hash:(fun (env_sig, fn) -> Hashtbl.hash env_sig lxor Ast.hash_func fn)
        ~equal:( = ) ();
  }

let pipelines m = (C.Compile_cache.counters m.whole).C.Compile_cache.misses

let compile_cached l m ~compiler ~version level ast =
  C.Compile_cache.find_or_add m.whole (compiler.C.Compiler.name, version, level, ast) (fun () ->
      let ir =
        Ledger.span l "lower.self_s" (fun () ->
            Lower.program_with
              ~lower_func:(fun env fn ->
                C.Compile_cache.find_or_add m.lower_fn (Lower.env_signature env, fn) (fun () ->
                    Lower.func env fn))
              ast)
      in
      optimize_and_scan l ~compiler ~version level ir)

(* {1 Ground truth} *)

let ground_truth l prog =
  Ledger.count l "exec.runs" 1;
  match Ledger.span l "exec.self_s" (fun () -> Core.Ground_truth.compute prog) with
  | Core.Ground_truth.Valid truth as v ->
    Ledger.count l "exec.steps" truth.Core.Ground_truth.steps;
    v
  | Core.Ground_truth.Rejected _ as r -> r

(* {1 One hunt case} *)

type hunt_case =
  | Rejected
  | Analyzed of (string * C.Level.t * Ir.Iset.t) list  (** surviving set per config *)

let compilers = [ C.Gcc_sim.compiler; C.Llvm_sim.compiler ]

let hunt_case l ~case_seed =
  let raw =
    Ledger.span l "smith.self_s" (fun () -> fst (Dce_smith.Smith.generate (Dce_smith.Smith.default_config case_seed)))
  in
  let inst = Ledger.span l "instrument.self_s" (fun () -> Core.Instrument.program raw) in
  match ground_truth l inst with
  | Core.Ground_truth.Rejected _ -> Rejected
  | Core.Ground_truth.Valid truth ->
    let lowered = Ledger.span l "lower.self_s" (fun () -> Lower.program inst) in
    ignore
      (Ledger.span l "primary.self_s" (fun () ->
           Core.Primary.build ~live_blocks:truth.Core.Ground_truth.live_blocks lowered));
    Analyzed
      (List.concat_map
         (fun compiler ->
           List.map
             (fun level ->
               ( compiler.C.Compiler.name,
                 level,
                 Ir.Iset.of_list (compile l ~compiler level inst) ))
             C.Level.all)
         compilers)

(* {1 The reduction predicate}

   [Predicate.marker_diff ~compile_cache:true], stage for stage, with each
   stage in a span and compiles through the replay's own memo. *)

let o3 compiler = { Core.Differential.compiler; level = C.Level.O3; version = None }

let marker_diff l m ~marker =
  let stage name cost run =
    {
      Predicate.st_name = name;
      st_cost = cost;
      st_run = (fun p -> Ledger.span l ("predicate." ^ name ^ ".self_s") (fun () -> run p));
    }
  in
  let survives compiler p =
    List.mem marker
      (compile_cached l m ~compiler ~version:(C.Compiler.head compiler) C.Level.O3 p)
  in
  Predicate.v ~compile_cached:true
    [
      stage "typecheck" Predicate.Free (fun p ->
          match Dce_minic.Typecheck.check p with Ok p -> Some p | Error _ -> None);
      stage "marker-present" Predicate.Free (fun p ->
          if List.mem marker (Ast.markers_of_program p) then Some p else None);
      stage "ground-truth" Predicate.Execution (fun p ->
          match ground_truth l p with
          | Core.Ground_truth.Valid truth when Ir.Iset.mem marker truth.Core.Ground_truth.dead -> Some p
          | _ -> None);
      stage "keeper-survives" Predicate.Pipeline (fun p ->
          if survives C.Gcc_sim.compiler p then Some p else None);
      stage "eliminator-kills" Predicate.Pipeline (fun p ->
          if survives C.Llvm_sim.compiler p then None else Some p);
    ]

let predicate_stages = [ "typecheck"; "marker-present"; "ground-truth"; "keeper-survives"; "eliminator-kills" ]

(* {1 One bisection}

   The probe sequence of [Bisect.find_regression_counted] (exponential
   search back from HEAD, then binary search), each probe a cached compile.
   Returns the offending version index ([Some]) or [None] for a marker
   that is not a regression, and the probes spent. *)

let bisect l m compiler level prog ~marker =
  let head = C.Compiler.head compiler in
  let probes = ref 0 in
  let eliminates version =
    incr probes;
    not (List.mem marker (compile_cached l m ~compiler ~version level prog))
  in
  let outcome =
    if eliminates head then None
    else
      let rec back step =
        let v = head - step in
        if v < 0 then if eliminates 0 then Some 0 else None
        else if eliminates v then Some v
        else back (step * 2)
      in
      match back 1 with
      | None -> None
      | Some good ->
        let rec bsearch good bad =
          if bad - good <= 1 then bad
          else
            let mid = (good + bad) / 2 in
            if eliminates mid then bsearch mid bad else bsearch good mid
        in
        Some (bsearch good head)
  in
  (outcome, !probes)
