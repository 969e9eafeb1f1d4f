(** A deterministic round-structured protocol, as a resumable computation.

    A protocol alternates local computation with synchronous communication
    rounds. In each round every party chooses (at most) one message per
    recipient; the simulator then delivers all round-[r] messages at once and
    resumes every party with its inbox — exactly the synchronous model of
    Section 2 of the paper.

    Protocols are written in the continuation-passing builder ['a m] and
    reified to ['a t] for the round loop: a [let*] composes continuations
    once, when it runs, so a running sub-protocol's [Step] reaches the round
    loop with the whole rest of the protocol already attached. *)

type inbox = string option array
(** [inbox.(s)] is the message received from party [s] this round, [None] if
    [s] sent nothing (or an empty slot for self). Senders are authenticated
    by construction — the simulator fills slot [s] only with [s]'s message,
    which models the paper's authenticated channels. *)

type 'a t =
  | Done of 'a
  | Step of (int -> string option) * (inbox -> 'a t)
      (** [Step (out, k)]: send [out recipient] to every recipient, then
          continue with the received inbox. *)
  | Push of string * 'a t  (** Begin a metrics label scope (see {!Metrics}). *)
  | Pop of 'a t  (** End the innermost label scope. *)
  | Probe of string * Bitstring.t * 'a t
      (** Emit an observability data point (key, the party's value);
          consumes no round and sends nothing. *)

(* A builder takes the rest of the protocol, [f], and produces the reified
   protocol that runs this part and then [f].

   Each combinator below wraps its result in [Sys.opaque_identity], which
   costs nothing at run time. Without it the compiler merges
   [fun m g -> { k = fun f -> ... }] into one three-argument function, and
   every [bind m g] then allocates a partial application one word larger
   than the closure, applied through a stub: a one-round
   [let* _ = exchange out in return v] allocated 35 words that way, 27 with
   the wrapper. *)
type 'a m = { k : 'r. ('a -> 'r t) -> 'r t } [@@unboxed]

let run m = m.k (fun x -> Done x)

(* Sequencing on the reified form: re-wraps every [Step] of [m] with [f],
   one allocation per round for as long as [m] runs. Only [lift] uses it. *)
let rec bind_t m f =
  match m with
  | Done x -> f x
  | Step (out, k) -> Step (out, fun inbox -> bind_t (k inbox) f)
  | Push (l, rest) -> Push (l, bind_t rest f)
  | Pop rest -> Pop (bind_t rest f)
  | Probe (key, value, rest) -> Probe (key, value, bind_t rest f)

let lift p = Sys.opaque_identity { k = (fun f -> bind_t p f) }
let return x = Sys.opaque_identity { k = (fun f -> f x) }
let bind m g = Sys.opaque_identity { k = (fun f -> m.k (fun x -> (g x).k f)) }
let ( let* ) = bind
let map m g = Sys.opaque_identity { k = (fun f -> m.k (fun x -> f (g x))) }
let ( let+ ) = map

(** [exchange out] runs one communication round sending [out r] to each
    recipient [r]; the round loop resumes the caller's continuation itself. *)
let exchange out = Sys.opaque_identity { k = (fun f -> Step (out, f)) }

(** One round in which the same message goes to every party. The [Some] box
    is shared across recipients — the out function runs once per recipient
    per round, so a per-call box would cost n allocations per broadcast. *)
let broadcast msg =
  let m = Some msg in
  exchange (fun _ -> m)

(** One round in which this party sends nothing but still receives. *)
let silent = exchange (fun _ -> None)

let receive_only () = silent

(** [with_label label m] attributes the communication of [m] to [label] in
    the metrics (used by the component-ablation experiment). Scopes nest. *)
let with_label label m =
  Sys.opaque_identity { k = (fun f -> Push (label, m.k (fun x -> Pop (f x)))) }

(** [probe key value] emits an observability data point; a recorder keeps
    the (immutable) bitstring and renders it only at export. *)
let probe key value = Sys.opaque_identity { k = (fun f -> Probe (key, value, f ())) }

(* ---- parallel composition ------------------------------------------------ *)

(* Wire format for a multiplexed round message: a list of per-branch
   optional payloads (varint count, then option-tagged bytes). Defensive:
   anything malformed, or with the wrong branch count, reads as all-None. *)
let encode_mux slots =
  if Array.for_all Option.is_none slots then None
  else
    Some
      (Wire.encode
         (Wire.w_list (Wire.w_option Wire.w_bytes) (Array.to_list slots)))

let r_mux_slot = Wire.r_option (Wire.r_bytes ())

let decode_mux ~branches raw =
  match raw with
  | None -> Array.make branches None
  | Some raw -> (
      match Wire.decode_full (Wire.r_list ~max:branches r_mux_slot) raw with
      | Some slots when List.length slots = branches -> Array.of_list slots
      | Some _ | None -> Array.make branches None)

(* Labels inside parallel branches are stripped: the branches' scopes would
   interleave on one per-party stack with no consistent meaning. Label the
   composition from outside instead. Probes are stripped for the same
   reason — branch-local occurrence indices would interleave arbitrarily. *)
let rec strip_labels = function
  | Push (_, m) | Pop m | Probe (_, _, m) -> strip_labels m
  | (Done _ | Step _) as m -> m

(** [parallel ps] runs the protocols [ps] concurrently: each round carries
    one multiplexed message per recipient containing every still-running
    branch's message, and every branch receives its slice of the inbox.
    Finishes when all branches have finished, in the [max] of the branches'
    round counts — against their [sum] for sequential composition. All
    honest parties must compose the same branch list (branch count and order
    are protocol parameters).

    Each branch is reified and stepped as its own state machine; the
    caller's continuation runs once, when the last branch is done. Used to
    run independent sub-protocol instances — e.g. n broadcasts, one per
    sender — without paying their rounds sequentially. Labels inside
    branches are stripped; wrap the whole composition in {!with_label}. *)
let parallel protocols =
  let branches = List.length protocols in
  if branches = 0 then invalid_arg "Proto.parallel: no branches";
  {
    k =
      (fun f ->
        let rec advance states =
          let states = Array.map strip_labels states in
          if Array.for_all (function Done _ -> true | _ -> false) states then
            f
              (Array.to_list
                 (Array.map (function Done v -> v | _ -> assert false) states))
          else
            let out recipient =
              encode_mux
                (Array.map
                   (function Step (out, _) -> out recipient | _ -> None)
                   states)
            in
            Step
              ( out,
                fun inbox ->
                  (* Pre-split the inbox once per sender, then slice per
                     branch. *)
                  let split =
                    Array.map (fun raw -> decode_mux ~branches raw) inbox
                  in
                  advance
                    (Array.mapi
                       (fun b state ->
                         match state with
                         | Step (_, k) ->
                             k (Array.map (fun slots -> slots.(b)) split)
                         | done_ -> done_)
                       states) )
        in
        advance (Array.of_list (List.map (fun p -> strip_labels (run p)) protocols)));
  }

(** Two-branch convenience over {!parallel}. *)
let both a b =
  map
    (parallel [ map a (fun x -> `A x); map b (fun y -> `B y) ])
    (function
      | [ `A x; `B y ] -> (x, y)
      | [ `B y; `A x ] -> (x, y)
      | _ -> assert false)
