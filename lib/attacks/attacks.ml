(** Protocol-aware Byzantine strategies.

    The generic strategies in {!Net.Adversary} corrupt bytes blindly; the
    attacks here {e parse} the corrupted parties' prescribed traffic to
    recognize protocol phases (votes, Reed–Solomon tuples, bitstring windows,
    king rounds) and substitute semantically well-formed lies. Each attack
    targets a specific proof obligation of the paper:

    - {!vote_stuffer} attacks Π_BA+'s Intrusion Tolerance (Definition 3),
    - {!tuple_forger} / {!index_confuser} attack Π_ℓBA+'s authenticated
      distribution (Lemma 6),
    - {!window_fabricator} attacks FINDPREFIX's Property (C) (Lemma 8),
    - {!prefix_saboteur} attacks liveness/cost: forces the ⊥ path of every
      Π_ℓBA+ iteration,
    - [king_usurper] attacks the phase-king fallback adoption,
    - {!backref_abuser} attacks Π_BA's back-reference resolution.

    The test-suite and the resilience experiment run every CA protocol
    against all of them; with ≤ t < n/3 corruptions none may violate
    Definition 1. *)

open Net

(* Recognizers for the wire shapes used by the protocol stack. They only
   need to be sound enough for an attacker: misclassification merely makes
   the attack weaker, never incorrect. *)

let is_vote raw =
  (* Π_BA+ vote: list of 0..2 byte-values (each 32 bytes in real runs). *)
  match Wire.decode_full (Wire.r_list ~max:3 (Wire.r_bytes ())) raw with
  | Some values -> List.length values <= 2
  | None -> false

(** Always vote — alone and unanimously — for a fabricated value, whenever
    the protocol expects a vote from us. Intrusion Tolerance must hold: with
    only t byzantine voters the fabricated value can never reach the n−t vote
    threshold. *)
let vote_stuffer ~payload =
  let stuffed = Wire.encode (Wire.w_list Wire.w_bytes [ payload ]) in
  Adversary.make ~name:"vote-stuffer" (fun view ~sender ~recipient ->
      match Adversary.prescribed_msg view ~sender ~recipient with
      | Some raw when is_vote raw -> Some stuffed
      | other -> other)

(** Replace the codeword inside every Reed–Solomon distribution tuple with
    random bytes of the same length, keeping the (now mismatched) Merkle
    witness. Honest receivers must detect and discard every forged tuple —
    this is exactly the adversary Lemma 6 argues about. *)
let tuple_forger ~seed =
  let rng = Prng.create seed in
  Adversary.make ~name:"tuple-forger" (fun view ~sender ~recipient ->
      match Adversary.prescribed_msg view ~sender ~recipient with
      | Some raw as msg -> (
          match Baplus.Ext_ba_plus.decode_tuple raw with
          | None -> msg
          | Some (index, codeword, witness) ->
              let codeword = Prng.bytes rng (String.length codeword) in
              Some (Baplus.Ext_ba_plus.encode_tuple ~index ~codeword ~witness))
      | None -> None)

(** Relabel every distribution tuple with a shifted index (a valid codeword
    presented under the wrong party index) — the witness binds the index, so
    verification must fail. *)
let index_confuser =
  Adversary.make ~name:"index-confuser" (fun view ~sender ~recipient ->
      match Adversary.prescribed_msg view ~sender ~recipient with
      | Some raw as msg -> (
          match Baplus.Ext_ba_plus.decode_tuple raw with
          | None -> msg
          | Some (index, codeword, witness) ->
              let index = (index + 1) mod view.Adversary.n in
              Some (Baplus.Ext_ba_plus.encode_tuple ~index ~codeword ~witness))
      | None -> None)

let complement bits =
  Bitstring.init (Bitstring.length bits) (fun i -> not (Bitstring.get bits i))

(** Whenever the protocol would send a bitstring window (FINDPREFIX inputs,
    HIGHCOSTCA values), send the complement instead — a well-formed value
    that no honest party holds. Π_ℓBA+ must never adopt it (Intrusion
    Tolerance) and HIGHCOSTCA's interval trimming must exclude it. *)
let window_fabricator =
  Adversary.make ~name:"window-fabricator" (fun view ~sender ~recipient ->
      match Adversary.prescribed_msg view ~sender ~recipient with
      | Some raw as msg -> (
          match Wire.decode_full (Wire.r_bits ()) raw with
          | None -> msg
          | Some bits -> Some (Wire.encode_value (complement bits)))
      | None -> None)

(** Equivocate on windows: send the true window to low-index recipients and
    the complement to high-index ones — the strongest way to starve Π_BA+ of
    a quorum and force the ⊥ path of every FINDPREFIX iteration. CA must
    still hold (the search simply terminates with a shorter prefix); the
    interesting measurement is the communication impact, which is bounded
    because ⊥ iterations skip the distribution step. *)
let prefix_saboteur =
  Adversary.make ~name:"prefix-saboteur" (fun view ~sender ~recipient ->
      match Adversary.prescribed_msg view ~sender ~recipient with
      | Some raw as msg when recipient >= view.Adversary.n / 2 -> (
          match Wire.decode_full (Wire.r_bits ()) raw with
          | None -> msg
          | Some bits -> Some (Wire.encode_value (complement bits)))
      | other -> other)

(** In every round that looks like a phase-king king round (the corrupted
    party is the only prescribed sender among the corrupted set and the round
    index is a multiple of 3), broadcast [payload] — the strongest attack on
    the king-adoption fallback. Against Π_BA this may only steer the output
    when honest parties disagree; against the CA protocols, which feed the
    king rounds only agreed-upon or validity-checked data, Definition 1 must
    survive. *)
let king_usurper ~payload =
  let msg = Some (Ba.Phase_king.king_message payload) in
  Adversary.make ~name:"king-usurper" (fun view ~sender ~recipient ->
      if view.Adversary.round mod 3 = 0 then msg
      else Adversary.prescribed_msg view ~sender ~recipient)

(** Abuse Π_BA's back-references, reading the round number as phase king's
    (round [3(k-1) + j] is round [j] of phase [k], and phase [k]'s king is
    party [k-1]):
    - round 1: the back-reference in phase 1, where it is a plain value;
      in even phases silence toward even recipients and a full tag with an
      empty or undecodable body toward odd ones; in odd phases after the
      first the "same as last time" back-reference, which then follows
      silence or a body that does not decode;
    - round 2: the "my round-1 value" back-reference, which toward even
      recipients of an even phase refers to no round-1 message;
    - round 3: the king back-reference from every corrupt party, king or
      not, and a full tag with an undecodable body toward odd recipients.
    Every back-reference must resolve to something the sender could have
    sent (or to silence), so Definition 2 and Lemma 2 hold. *)
let backref_abuser =
  let token = Some Ba.Phase_king.back_reference in
  let empty = Some (Ba.Phase_king.king_message "")
  and junk = Some (Ba.Phase_king.king_message "\255\255\255") in
  Adversary.make ~name:"backref-abuser" (fun view ~sender:_ ~recipient ->
      let round = view.Adversary.round - 1 in
      let phase = (round / 3) + 1 and odd = recipient land 1 = 1 in
      match round mod 3 with
      | 0 when phase = 1 -> token
      | 0 when phase mod 2 = 0 ->
          if not odd then None else if recipient land 2 = 0 then empty else junk
      | 0 | 1 -> token
      | _ -> if odd then junk else token)

(** Composite: rotate through the targeted attacks round-robin, one attack
    per phase-king phase (rounds [3k+1 .. 3k+3] run attack [k mod 7]), so
    each attack that reads phase king's rounds acts on a whole phase — a
    chaotic but protocol-shaped adversary for soak tests. *)
let rotating ~seed ~payload =
  let menu =
    [|
      vote_stuffer ~payload;
      tuple_forger ~seed;
      index_confuser;
      window_fabricator;
      prefix_saboteur;
      king_usurper ~payload;
      backref_abuser;
    |]
  in
  Adversary.make ~name:"rotating-attacks" (fun view ~sender ~recipient ->
      let a = menu.((view.Adversary.round - 1) / 3 mod Array.length menu) in
      a.Adversary.act view ~sender ~recipient)

(* ------------------------------------------------------------------ *)
(* The registry                                                        *)
(* ------------------------------------------------------------------ *)

type entry = {
  name : string;
  byte_level : bool;
  make : seed:int -> payload:string -> Adversary.t;
}

(* Every entry builds its strategy afresh and names it after itself, so the
   name a strategy reports is the name it is looked up by. *)
let registry =
  let entry byte_level name make =
    let make ~seed ~payload = { (make ~seed ~payload) with Adversary.name } in
    { name; byte_level; make }
  in
  let generic name make = entry true name (fun ~seed ~payload:_ -> make seed) in
  let attack = entry false in
  [
    generic "passive" (fun _ -> Adversary.passive);
    generic "silent" (fun _ -> Adversary.silent);
    generic "crash" (fun _ -> Adversary.crash ~after:3);
    generic "garbage" (fun seed -> Adversary.garbage ~seed);
    generic "spammer" (fun seed -> Adversary.spammer ~seed ~max_len:64);
    generic "equivocate" (fun seed -> Adversary.equivocate ~seed);
    generic "bitflip" (fun seed -> Adversary.bitflip ~seed);
    generic "delayer" (fun _ -> Adversary.delayer ());
    (* Silent in odd rounds, garbage in even ones. *)
    generic "silent-garbage" (fun seed ->
        let garbage = Adversary.garbage ~seed:(seed + 1) in
        Adversary.make ~name:"silent-garbage" (fun view ~sender ~recipient ->
            if view.Adversary.round land 1 = 1 then None
            else garbage.Adversary.act view ~sender ~recipient));
    attack "vote-stuffer" (fun ~seed:_ ~payload -> vote_stuffer ~payload);
    attack "tuple-forger" (fun ~seed ~payload:_ -> tuple_forger ~seed);
    attack "index-confuser" (fun ~seed:_ ~payload:_ -> index_confuser);
    attack "window-fabricator" (fun ~seed:_ ~payload:_ -> window_fabricator);
    attack "prefix-saboteur" (fun ~seed:_ ~payload:_ -> prefix_saboteur);
    attack "king-usurper" (fun ~seed:_ ~payload -> king_usurper ~payload);
    attack "backref-abuser" (fun ~seed:_ ~payload:_ -> backref_abuser);
    attack "rotating-attacks" (fun ~seed ~payload -> rotating ~seed ~payload);
  ]

let generic = List.filter (fun e -> e.byte_level) registry
let instantiate ~seed ~payload entries = List.map (fun e -> e.make ~seed ~payload) entries
