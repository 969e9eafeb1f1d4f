(** Per-party protocol context: the publicly known parameters of the run.

    [n] parties [0 .. n-1]; at most [t] of them corrupted, with the paper's
    resilience requirement [t < n/3]; [me] is the index of the party running
    this protocol instance. *)

type t = { n : int; t : int; me : int }

let make ~n ~t ~me =
  if n < 1 then invalid_arg "Ctx.make: n < 1";
  if t < 0 || 3 * t >= n then invalid_arg "Ctx.make: requires t < n/3";
  if me < 0 || me >= n then invalid_arg "Ctx.make: bad party index";
  { n; t; me }

(** For protocols in the authenticated setting (cryptographic setup), where
    the resilience bound is t < n/2 — the paper's second open problem,
    explored by the [Auth] library. *)
let make_authenticated ~n ~t ~me =
  if n < 1 then invalid_arg "Ctx.make_authenticated: n < 1";
  if t < 0 || 2 * t >= n then invalid_arg "Ctx.make_authenticated: requires t < n/2";
  if me < 0 || me >= n then invalid_arg "Ctx.make_authenticated: bad party index";
  { n; t; me }

(** [n - t]: the minimum number of honest parties (quorum size used
    throughout the paper). *)
let quorum c = c.n - c.t
