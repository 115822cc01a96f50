(* Drift correction.  The machine this runs on is shared, and its speed
   moves by tens of percent between runs and within one.  A reference
   computation ([Campbench_ref.Refwork]) is timed next to every measured
   item; each item's raw time is scaled by nominal / (median of the
   reference times around it), so a machine running everything 20% slower
   reports the same reference seconds. *)

let now = Unix.gettimeofday

(* Reference runs on each side of an item that its scale is taken from:
   wide enough that one interrupted reference run does not move the
   median, narrow enough to follow drift that lasts a few seconds. *)
let half_window = 5

type t = {
  mutable refs : float list;  (* reference durations, newest first *)
  mutable count : int;
  mutable frozen : float array;
}

type sample = { s_before : int; s_raw : float }
(** A timed block: its raw seconds and the number of reference runs that
    preceded it. *)

let create () = { refs = []; count = 0; frozen = [||] }

let expected_checksum = lazy (Campbench_ref.Refwork.run ())

let checkpoint d =
  let t0 = now () in
  let sum = Campbench_ref.Refwork.run () in
  let dt = now () -. t0 in
  if sum <> Lazy.force expected_checksum then failwith "reference computation changed its result";
  d.refs <- dt :: d.refs;
  d.count <- d.count + 1

(* [time d ~refs f]: [refs] reference runs, then [f] timed. *)
let time ?(refs = 1) d f =
  for _ = 1 to refs do
    checkpoint d
  done;
  let before = d.count in
  let t0 = now () in
  let r = f () in
  (r, { s_before = before; s_raw = now () -. t0 })

(* Closes a measured phase: the reference runs after the last item. *)
let finish d =
  for _ = 1 to half_window do
    checkpoint d
  done;
  d.frozen <- Array.of_list (List.rev d.refs)

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let scale d s =
  let n = Array.length d.frozen in
  if n = 0 then invalid_arg "Drift.scale before Drift.finish";
  let lo = max 0 (s.s_before - half_window) and hi = min n (s.s_before + half_window) in
  Campbench_ref.Refwork.nominal_s /. median (Array.sub d.frozen lo (hi - lo))

(* Reference seconds of a sample. *)
let corrected d s = s.s_raw *. scale d s

let reference_times d = d.frozen
