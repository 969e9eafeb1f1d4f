(** Byzantine adversary interface and a library of generic strategies.

    The simulator runs a protocol instance for *every* party, corrupted ones
    included; each round the adversary sees all prescribed messages (honest
    parties' actual messages and what corrupted parties would send if they
    were honest) and replaces the corrupted parties' messages arbitrarily.
    Seeing the honest round-[r] messages before choosing the Byzantine
    round-[r] messages makes the adversary {e rushing}.

    Protocol-specific attacks (e.g. value-injection against convex validity)
    are built in the workload library on top of this interface — often simply
    by giving corrupted parties adversarial {e inputs} and a generic message
    strategy. *)

type view = {
  round : int;  (** 1-based round number. *)
  n : int;
  t : int;
  corrupt : bool array;
  inbound : string option array array;
      (** [inbound.(r).(s)]: what party [s]'s protocol instance would send
          to [r] this round, recipient-major as the round loop keeps the
          round; columns of terminated parties are all-[None]. The matrix
          is the loop's own and valid only inside [act]: read it there,
          keep no reference to it or its rows. *)
}

type t = {
  name : string;
  act : view -> sender:int -> recipient:int -> string option;
      (** Called once per (corrupted sender, recipient) pair per round; the
          result replaces the prescribed message. *)
}

let make ~name act = { name; act }

let prescribed_msg view ~sender ~recipient = view.inbound.(recipient).(sender)

(** {1 Generic strategies} *)

(** Corrupted parties follow the protocol honestly (on their own inputs).
    The baseline "weakest" adversary; combined with adversarial inputs it is
    already the strongest attack on convex validity for many protocols. *)
let passive = make ~name:"passive" (fun view ~sender ~recipient ->
    prescribed_msg view ~sender ~recipient)

(** Corrupted parties never send anything (fail-stop from round one). *)
let silent = make ~name:"silent" (fun _ ~sender:_ ~recipient:_ -> None)

(** Follow the protocol until round [after], then stop sending. *)
let crash ~after =
  make ~name:(Printf.sprintf "crash@%d" after) (fun view ~sender ~recipient ->
      if view.round <= after then prescribed_msg view ~sender ~recipient else None)

(** Replace every prescribed message with pseudo-random bytes of the same
    length (stress-tests defensive decoding without changing traffic shape). *)
let garbage ~seed =
  let rng = Prng.create seed in
  make ~name:"garbage" (fun view ~sender ~recipient ->
      match prescribed_msg view ~sender ~recipient with
      | None -> None
      | Some m -> Some (Prng.bytes rng (String.length m)))

(** Send unsolicited random blobs every round to every recipient, even when
    the protocol prescribes silence. *)
let spammer ~seed ~max_len =
  let rng = Prng.create seed in
  make ~name:"spammer" (fun _ ~sender:_ ~recipient:_ ->
      Some (Prng.bytes rng (1 + Prng.int rng max_len)))

(** Equivocation: follow the protocol toward low-index recipients but mutate
    the payload toward high-index recipients — recipients see conflicting
    claims from the same sender. *)
let equivocate ~seed =
  let rng = Prng.create seed in
  make ~name:"equivocate" (fun view ~sender ~recipient ->
      match prescribed_msg view ~sender ~recipient with
      | None -> None
      | Some m ->
          if recipient < view.n / 2 || String.length m = 0 then Some m
          else begin
            let b = Bytes.of_string m in
            let i = Prng.int rng (Bytes.length b) in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + Prng.int rng 255)));
            Some (Bytes.unsafe_to_string b)
          end)

(** Mutate a random bit of every prescribed message (sent to everyone —
    consistent corruption rather than equivocation). *)
let bitflip ~seed =
  let rng = Prng.create seed in
  make ~name:"bitflip" (fun view ~sender ~recipient ->
      match prescribed_msg view ~sender ~recipient with
      | None -> None
      | Some m when String.length m = 0 -> Some m
      | Some m ->
          (* Derive the flip from (round, sender) so all recipients of this
             sender see the same corrupted message. *)
          let g = Prng.split rng ~salt:((view.round * 1009) + sender) in
          let b = Bytes.of_string m in
          let i = Prng.int g (Bytes.length b) in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Prng.int g 8)));
          Some (Bytes.unsafe_to_string b))

(** Replay the previous round's prescribed message (desynchronization). *)
let delayer () =
  let held : (int * int, string option) Hashtbl.t = Hashtbl.create 64 in
  make ~name:"delayer" (fun view ~sender ~recipient ->
      let key = (sender, recipient) in
      let old = Option.join (Hashtbl.find_opt held key) in
      Hashtbl.replace held key (prescribed_msg view ~sender ~recipient);
      old)
