(* Per-layer self times and counts of one traced item.  A span's self time
   is its duration minus the time of the spans (and reported child times)
   nested in it, so the self times of one item add up to the item's
   covered time without double counting. *)

type frame = { mutable child : float }

type t = {
  times : (string, float) Hashtbl.t;
  counts : (string, int) Hashtbl.t;
  mutable stack : frame list;
}

let create () = { times = Hashtbl.create 64; counts = Hashtbl.create 64; stack = [] }

let add_time l name dt =
  Hashtbl.replace l.times name (dt +. Option.value ~default:0. (Hashtbl.find_opt l.times name))

let count l name n =
  Hashtbl.replace l.counts name (n + Option.value ~default:0 (Hashtbl.find_opt l.counts name))

let charge_parent l dt = match l.stack with p :: _ -> p.child <- p.child +. dt | [] -> ()

(* Time measured inside a call (a pass's own clock) booked to [name] and
   taken out of the enclosing span's self time. *)
let child_time l name dt =
  add_time l name dt;
  charge_parent l dt

let span l name f =
  let fr = { child = 0. } in
  l.stack <- fr :: l.stack;
  let t0 = Unix.gettimeofday () in
  let close () =
    let dt = Unix.gettimeofday () -. t0 in
    l.stack <- List.tl l.stack;
    add_time l name (dt -. fr.child);
    charge_parent l dt
  in
  match f () with
  | r ->
    close ();
    r
  | exception e ->
    close ();
    raise e

let time l name = Option.value ~default:0. (Hashtbl.find_opt l.times name)
let get_count l name = Option.value ~default:0 (Hashtbl.find_opt l.counts name)
let total_time l = Hashtbl.fold (fun _ v acc -> acc +. v) l.times 0.

(* [into acc ~scale l]: add [l]'s times, multiplied by [scale], and its
   counts to [acc]. *)
let into acc ~scale l =
  Hashtbl.iter (fun k v -> add_time acc k (v *. scale)) l.times;
  Hashtbl.iter (fun k v -> count acc k v) l.counts
