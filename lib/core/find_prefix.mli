(** FINDPREFIX (Section 3) and FINDPREFIXBLOCKS (Section 4): binary search,
    over bit positions ({!Make.run}) or over n² blocks of ℓ/n² bits
    ({!Make.run_blocks}), for the prefix of a valid value — at least as long
    as the honest inputs' longest common prefix — agreeing on windows of the
    parties' values: with Π_BA+ on the window itself when it is at most
    κ = 256 bits long, and with Π_ℓBA+ (Merkle root plus Reed–Solomon
    distribution) when it is longer. Both give the Agreement, Intrusion
    Tolerance and Bounded Pre-Agreement the search relies on, and the
    window length is a function of agreed search bounds, so every honest
    party takes the same branch.

    Lemma 1: on return all honest parties share [prefix_star]; every honest
    party's [v] is valid (in the honest inputs' range) with prefix
    [prefix_star]; and for {e every} bitstring of [|prefix_star| + 1] bits at
    least t+1 honest parties hold a valid [v_bot] not extending it — the
    precondition GETOUTPUT needs. Lemma 4 is the same with "bit" read as
    "block".

    Complexity: O(log ℓ) iterations on halving windows, i.e.
    BITS = O(ℓn + κ·n²·log n·log ℓ) + O(log ℓ)·BITS_κ(Π_BA); a window of at
    most κ bits costs Π_BA+'s O(κn²) exchange plus BITS_κ(Π_BA), within the
    same bound. The block search takes O(log n) iterations instead. *)

type result = {
  prefix_star : Bitstring.t;  (** a whole number of blocks *)
  v : Bitstring.t;  (** valid, ℓ bits, has [prefix_star] as a prefix *)
  v_bot : Bitstring.t;  (** valid, ℓ bits; Lemma 1 (ii) *)
  iterations : int;  (** diagnostic: window agreements (Π_BA+ or Π_ℓBA+) used *)
}

module Make (B : Ba.Substrate.S) : sig
  val run : Net.Ctx.t -> bits:int -> Bitstring.t -> result Net.Proto.m
  (** FINDPREFIX, labelled [find_prefix]. All honest parties must join with
      the same [bits] and a valid [bits]-bit value. Raises [Invalid_argument]
      on a length mismatch. The inner Π_BA+ and Π_ℓBA+ instances run on the
      substrate [B]. *)

  val run_blocks : Net.Ctx.t -> bits:int -> Bitstring.t -> result Net.Proto.m
  (** FINDPREFIXBLOCKS, labelled [find_prefix_blocks]: the same search over
      n² blocks. [bits] must be a positive multiple of n²; all honest parties
      join with the same [bits] and valid [bits]-bit values. Raises
      [Invalid_argument] otherwise. *)

  val cost_estimate :
    Net.Ctx.t -> value_bits:int -> f:int -> Ba.Substrate.cost
  (** f-sensitive cost model of the bit search: ⌈log₂(ℓ+1)⌉ iterations on
      the halving windows of ⌊s/2⌋+1 bits (s = ℓ, ⌊ℓ/2⌋, …, 1), each window of
      at most κ bits charged as {!Baplus.Ba_plus.Make.cost_estimate} on that
      window and each longer one as
      {!Baplus.Ext_ba_plus.Make.cost_estimate} on ℓ bits — the substrate's
      f-adaptivity propagates through the whole search. *)
end

include module type of Make (Ba.Substrate.Unauthenticated)
(** The default instantiation over {!Ba.Substrate.Unauthenticated} — the
    historical hard-wired phase-king stack, bit-identical to the pre-seam
    protocol. *)
