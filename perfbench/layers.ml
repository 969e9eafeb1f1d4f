(* Outside-in layer timers for the traced run.

   Every timer wraps a public seam from this directory; no library code is
   instrumented:
   - [Timed] is a [Ba.Substrate.S] that delegates to
     [Ba.Substrate.Unauthenticated] and times every continuation (and every
     out-function call) of the Π_BA protocols it returns.  Proto's [bind]
     applies the caller's continuation after the wrapped one has returned, so
     the Π_BA timer never covers the surrounding protocol's code.
   - [top] wraps the top-level protocol value a session's party runs and
     times all of its continuations; the Π_BA time measured inside them is
     subtracted, and the remainder is split into the decision step (the
     continuation that returns [Done]) and every other step.
   - [transport] wraps a [Net.Transport.t]'s [exchange].

   Self times are exact integer nanoseconds of a monotonic clock, and the
   intervals nest strictly (Π_BA inside a top-level continuation inside a
   runtime call), so every self time is non-negative by construction. *)

open Net

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let minor_words () = int_of_float (Gc.minor_words ())

type acc = { mutable ns : int; mutable words : int; mutable calls : int }

let acc () = { ns = 0; words = 0; calls = 0 }

(* Π_BA's own time and allocation. *)
let ba = acc ()

(* Top-level continuation time outside Π_BA, split by step kind. *)
let step = acc ()
let decide = acc ()

(* Transport exchanges. *)
let exchange = acc ()

let reset () =
  List.iter
    (fun a ->
      a.ns <- 0;
      a.words <- 0;
      a.calls <- 0)
    [ ba; step; decide; exchange ]

(* All protocol time: what the runtime spent inside protocol code. *)
let protocol_ns () = ba.ns + step.ns + decide.ns

let rec terminal : type a. a Proto.t -> bool = function
  | Proto.Done _ -> true
  | Proto.Step _ -> false
  | Proto.Push (_, m) | Proto.Pop m | Proto.Probe (_, _, m) -> terminal m

(* ---- Π_BA --------------------------------------------------------------- *)

let ba_timed f =
  let t0 = now_ns () and w0 = minor_words () in
  let r = f () in
  ba.ns <- ba.ns + (now_ns () - t0);
  ba.words <- ba.words + (minor_words () - w0);
  r

let rec ba_wrap : type a. a Proto.t -> a Proto.t = function
  | Proto.Done _ as d -> d
  | Proto.Step (out, k) ->
      Proto.Step
        ( (fun r -> ba_timed (fun () -> out r)),
          fun inbox -> ba_wrap (ba_timed (fun () -> k inbox)) )
  | Proto.Push (l, m) -> Proto.Push (l, ba_wrap m)
  | Proto.Pop m -> Proto.Pop (ba_wrap m)
  | Proto.Probe (key, v, m) -> Proto.Probe (key, v, ba_wrap m)

let ba_call f =
  ba.calls <- ba.calls + 1;
  ba_wrap (ba_timed f)

module Timed : Ba.Substrate.S = struct
  module U = Ba.Substrate.Unauthenticated

  let name = U.name
  let assumption = U.assumption
  let max_t = U.max_t
  let rounds = U.rounds
  let bits_estimate = U.bits_estimate
  let cost = U.cost
  let run spec ctx v = ba_call (fun () -> U.run spec ctx v)
  let run_bit ctx b = ba_call (fun () -> U.run_bit ctx b)
  let run_bytes ctx s = ba_call (fun () -> U.run_bytes ctx s)
  let run_option ctx o = ba_call (fun () -> U.run_option ctx o)
end

module Pi_z = Convex.Ca_int.Make (Timed)

(* ---- top-level protocol value ------------------------------------------ *)

let top_timed pick f =
  let t0 = now_ns () and w0 = minor_words () in
  let b0 = ba.ns and bw0 = ba.words in
  let r = f () in
  let a = pick r in
  a.ns <- a.ns + (now_ns () - t0 - (ba.ns - b0));
  a.words <- a.words + (minor_words () - w0 - (ba.words - bw0));
  r

let top_cont f = top_timed (fun r -> if terminal r then decide else step) f

let rec top_wrap : type a. a Proto.t -> a Proto.t = function
  | Proto.Done _ as d -> d
  | Proto.Step (out, k) ->
      Proto.Step
        ( (fun r -> top_timed (fun _ -> step) (fun () -> out r)),
          fun inbox -> top_wrap (top_cont (fun () -> k inbox)) )
  | Proto.Push (l, m) -> Proto.Push (l, top_wrap m)
  | Proto.Pop m -> Proto.Pop (top_wrap m)
  | Proto.Probe (key, v, m) -> Proto.Probe (key, v, top_wrap m)

(** [top f] builds and wraps one party's protocol value; building it runs the
    protocol up to its first round, which counts as a step. *)
let top f = top_wrap (top_cont f)

(* ---- transport ---------------------------------------------------------- *)

let transport (tr : Transport.t) =
  {
    tr with
    Transport.exchange =
      (fun ~round ~entries ->
        let t0 = now_ns () in
        let r = tr.Transport.exchange ~round ~entries in
        exchange.ns <- exchange.ns + (now_ns () - t0);
        r);
  }
