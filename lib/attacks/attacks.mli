(** Protocol-aware Byzantine strategies.

    The generic strategies in {!Net.Adversary} corrupt bytes blindly; the
    attacks here {e parse} the corrupted parties' prescribed traffic to
    recognize protocol phases (votes, Reed–Solomon tuples, bitstring
    windows, king rounds) and substitute semantically well-formed lies. Each
    targets one proof obligation of the paper; the test-suite and the
    resilience experiment run every CA protocol against all of them. *)

val vote_stuffer : payload:string -> Net.Adversary.t
(** Vote — alone and unanimously — for a fabricated value whenever a Π_BA+
    vote is expected. Targets Intrusion Tolerance (Definition 3): t voters
    can never reach the n−t threshold. *)

val tuple_forger : seed:int -> Net.Adversary.t
(** Replace the codeword inside every RS distribution tuple with random
    bytes, keeping the (now mismatched) Merkle witness. Targets Lemma 6:
    honest receivers must discard every forged tuple. *)

val index_confuser : Net.Adversary.t
(** Relabel distribution tuples with a shifted index — a valid codeword
    under the wrong party index; the witness binds the index, so
    verification must fail. *)

val window_fabricator : Net.Adversary.t
(** Send the complement of every prescribed bitstring window — well-formed
    values no honest party holds. Targets FINDPREFIX Property (C) via
    Π_ℓBA+'s Intrusion Tolerance. *)

val prefix_saboteur : Net.Adversary.t
(** Equivocate on windows (true to one half, complement to the other) to
    starve Π_BA+ of quorums and force the ⊥ path of every FINDPREFIX
    iteration. CA must still hold; the ⊥ path skips the distribution step,
    so the saboteur cannot inflate honest traffic. *)

val backref_abuser : Net.Adversary.t
(** Abuse Π_BA's back-references ({!Ba.Phase_king.back_reference}): send
    them in phase 1, after silence, with no round-1 message to refer to, and
    as a king message from non-kings, alongside full messages with an empty
    or undecodable body. Definition 2 and Lemma 2 must hold. *)

val rotating : seed:int -> payload:string -> Net.Adversary.t
(** Round-robin through every targeted attack above, one per phase-king
    phase (rounds [3k+1 .. 3k+3] run attack [k mod 7]) — a protocol-shaped
    chaos monkey for soak tests. *)

(** {1 The registry}

    Every adversary the repository runs by name: the benchmark's resilience
    table, the soak, [ca_cli] ([--adversary NAME], [list]) and the test
    suites all read this one list. *)

type entry = {
  name : string;
      (** What [ca_cli list] prints and [--adversary] takes; also the built
          strategy's {!Net.Adversary.t.name}. Lower-case letters, digits
          and dashes. *)
  byte_level : bool;
      (** A generic strategy of {!Net.Adversary}, blind to the protocol. *)
  make : seed:int -> payload:string -> Net.Adversary.t;
      (** A fresh strategy: strategies carry PRNG and replay state, so each
          run builds its own. The generic entries ignore [payload]; the
          attacks that inject a value inject [payload]. *)
}

val registry : entry list
(** In order: the nine byte-level strategies ([passive], [silent], [crash]
    after round 3, [garbage], [spammer] up to 64 bytes, [equivocate],
    [bitflip], [delayer], and [silent-garbage], which is silent in odd
    rounds and [garbage] (seed + 1) in even ones), then the eight attacks
    above ([vote-stuffer], [tuple-forger], [index-confuser],
    [window-fabricator], [prefix-saboteur], [king-usurper],
    [backref-abuser], [rotating-attacks]). *)

val generic : entry list
(** The [byte_level] entries, in registry order. *)

val instantiate : seed:int -> payload:string -> entry list -> Net.Adversary.t list
(** [make ~seed ~payload] of each entry, in order. *)
