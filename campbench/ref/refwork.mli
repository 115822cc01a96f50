(** The drift reference: a fixed computation that uses the standard library
    only.  Every timing the benchmark reports is scaled by how fast this ran
    next to it (see [Drift]). *)

val nominal_s : float
(** Wall seconds one {!run} takes on the reference machine, between the
    benchmark's items: a timing of [t] raw seconds next to reference runs
    of median [r] seconds is reported as [t *. nominal_s /. r] reference
    seconds. *)

val run : unit -> int
(** Do the fixed work once; returns a checksum that is the same on every
    call (so the work cannot be optimised away). *)
