(** HIGHCOSTCA (Appendix A.4, Theorem 3): the adjusted Median-Validity
    protocol of Stolz–Wattenhofer [47] — a king-based CA protocol with
    communication O(ℓ·n³) and 2 + 4(t+1) rounds, resilient for t < n/3.

    Used by the main construction only on short inputs (one block, a block
    count), where the cubic cost is affordable, and as the "existing CA
    protocol" baseline. {!Rank_ba} reuses the search stage with a rank-window
    interval rule via {!run_custom}, and {!Median_ba} with that window at
    the median rank. *)

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
