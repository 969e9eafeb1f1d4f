(** Scenario files for the CLI: a minimal `key = value` format so experiment
    configurations can live in version control and be replayed exactly
    ([convex-agreement run --file experiment.scn]).

    Grammar: one `key = value` per line; blank lines and lines starting with
    [#] are ignored; keys may appear once. Unknown keys and malformed values
    are errors — a typo must never silently fall back to a default. *)

type t = {
  n : int;
  t : int;
  protocol : string;
  workload : string;
  adversary : string;
  attack : string;
  ba : string;
      (** BA substrate backend for the pi-z family:
          unauth | auth | adaptive | adaptive-auth *)
  bits : int;
  aa_rounds : int;
  seed : int;
}

val parse : string -> (t, string) result
(** Parse file contents (not a path). Starts from the defaults n = 7,
    t = 2, pi-z on sensors vs equivocate/outlier-high, ba = unauth,
    bits = 64, aa_rounds = 8, seed = 1; every assignment overrides one
    field. Errors name the offending line. *)

val load : string -> (t, string) result
(** Read and parse a file by path. *)

val to_string : t -> string
(** Render a scenario back to the file format (round-trips with {!parse}). *)
