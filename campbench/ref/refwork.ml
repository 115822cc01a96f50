(* A fixed computation timed next to every measured item.  It does the
   kinds of work the campaign does — hash tables, balanced-tree insertion,
   list sorting, array sweeps, short-lived allocation — so that a machine
   that runs the campaign slower runs it slower too, by about as much. *)

module Imap = Map.Make (Int)

let nominal_s = 0.0105

let run () =
  let state = ref 0x2545f491 in
  let next () =
    state := (!state * 1103515245 + 12345) land 0x3fffffff;
    !state
  in
  let table = Hashtbl.create 2048 in
  let tree = ref Imap.empty in
  for i = 0 to 24_000 do
    let x = next () in
    Hashtbl.replace table (x land 4095) i;
    if i land 3 = 0 then tree := Imap.add (x land 65535) i !tree
  done;
  let items = List.init 12_000 (fun _ -> next () land 0xffff) in
  let sorted = List.sort compare items in
  let sweep = Array.init 16_384 (fun i -> i lxor (next () land 0xff)) in
  let acc = ref 0 in
  for round = 1 to 16 do
    Array.iteri (fun i v -> acc := (!acc + (v * round) + i) land 0xffffff) sweep
  done;
  Hashtbl.fold (fun k v a -> (a + k + v) land 0xffffff) table 0
  + Imap.fold (fun k v a -> (a + k + v) land 0xffffff) !tree 0
  + List.fold_left (fun a v -> (a * 31 + v) land 0xffffff) 0 sorted
  + !acc
