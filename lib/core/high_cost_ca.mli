(** HIGHCOSTCA (Appendix A.4, Theorem 3): the adjusted Median-Validity
    protocol of Stolz–Wattenhofer [47] — a king-based CA protocol with
    communication O(ℓ·n³) and 2 + 4(t+1) rounds, resilient for t < n/3.

    Used by the main construction only on short inputs (one block, a block
    count), where the cubic cost is affordable, and as the "existing CA
    protocol" baseline. {!Rank_ba} reuses the search stage with a rank-window
    interval rule via {!run_custom}, and {!Median_ba} with that window at
    the median rank.

    Messages: the setup's input and interval exchanges carry the values in
    full. In the king phases a value the receiver already holds from the
    sender travels as phase king's one-byte [Ba.Phase_king.back_reference]:
    round 1's "the value I last sent you in round 1" (the setup input in
    phase 1), and rounds 2–4's "the value I sent in this phase's round 1";
    anything else is sent in full ([Ba.Phase_king.king_message] of the
    encoded value in rounds 1 and 3, the option encoding in rounds 2 and
    4). Receivers resolve every back-reference before they tally, so rounds,
    honest decisions and the O(ℓ·n³) worst case are the plain protocol's;
    an all-honest unanimous run costs 8·(n(n−1)(3·|enc v| + 3(t+1)) +
    (t+1)(n−1)) bits. *)

val run : Net.Ctx.t -> bits:int -> Bitstring.t -> Bitstring.t Net.Proto.m
(** All honest parties must join with values of the same width [bits]; the
    common output is a [bits]-wide value in the honest inputs' range. *)

(** {1 Custom trusted-interval rules} *)

val run_custom :
  Net.Ctx.t ->
  bits:int ->
  select_interval:
    (sorted:Bitstring.t array -> k:int -> t:int -> Bitstring.t * Bitstring.t) ->
  Bitstring.t ->
  Bitstring.t Net.Proto.m
(** [select_interval ~sorted ~k ~t] receives the ascending non-empty array of
    valid values a party received in the setup stage and [k], an upper bound
    on how many of them byzantine parties contributed, and returns the
    party's trusted interval [(lo, hi)], [lo <= hi]. Soundness requirement:
    the interval must lie within the guarantee the caller wants on outputs
    (for plain CA, within the honest inputs' range) and all honest parties'
    intervals must share a common point. *)
