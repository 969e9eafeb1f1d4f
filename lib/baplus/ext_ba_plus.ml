open Net

let ( let* ) = Proto.( let* )

let encode_tuple ~index ~codeword ~witness =
  Wire.(
    encode
      (seq [ w_varint index; w_bytes codeword; w_bytes (Merkle.encode_witness witness) ]))

(* Direct-style decode (hoisted readers, no per-call option-bind closures):
   one of these runs per harvested share. *)
let r_bytes_hot = Wire.r_bytes ()

let decode_tuple raw =
  let open Wire in
  decode_full
    (fun cur ->
      match r_varint cur with
      | None -> None
      | Some index -> (
          match r_bytes_hot cur with
          | None -> None
          | Some codeword -> (
              match r_bytes_hot cur with
              | None -> None
              | Some witness_raw -> (
                  match Merkle.decode_witness witness_raw with
                  | None -> None
                  | Some witness -> Some (index, codeword, witness)))))
    raw

(* Collect verified codewords for the root [checker] holds from an inbox:
   at most one per index (collision resistance makes duplicates consistent
   anyway). Stores [index -> (codeword, raw_tuple)] so a tuple can be
   republished verbatim. A full table short-circuits the walk — indices are
   bounded by [n], so [n] entries means nothing new can be learned and the
   per-message decode would be pure waste (this is every matching party in
   round 3b). The witnesses of one inbox, and of both rounds, share their
   upper nodes; the one [checker] per call hashes each such node once. *)
let harvest ~n ~checker ~into inbox =
  if Hashtbl.length into < n then
    Array.iter
      (function
        | None -> ()
        | Some raw -> (
            (* The leading index alone says whether the tuple can add
               anything: a copy of an index already held (every matching
               party sends a non-matching one its own tuple in 3a) is
               dropped undecoded. A copy whose index an earlier copy failed
               to verify is still tried. *)
            let index = Wire.leading_varint raw in
            if index >= 0 && index < n && not (Hashtbl.mem into index) then
              match decode_tuple raw with
              | Some (index, codeword, witness)
                when Merkle.check checker ~index ~value:codeword witness ->
                  Hashtbl.add into index (codeword, raw)
              | Some _ | None -> ()))
      inbox

module Make (B : Ba.Substrate.S) = struct
  module BP = Ba_plus.Make (B)

  (* f-sensitive cost model: the inner Π_BA+ runs on the κ-bit Merkle root,
     then two distribution rounds ship O(ℓ/(n−t))-bit codewords with
     O(κ log n) witnesses.  Inherits BP's (hence B's) f-adaptivity. *)
  let cost_estimate (ctx : Ctx.t) ~value_bits ~f =
    let n = ctx.Ctx.n in
    let kappa = 8 * Sha256.digest_size in
    let bp = BP.cost_estimate ctx ~value_bits:kappa ~f in
    let log2n =
      let rec go acc p = if p >= n then acc else go (acc + 1) (2 * p) in
      go 0 1
    in
    let share = (value_bits / max 1 (Ctx.quorum ctx)) + (kappa * (log2n + 2)) in
    {
      Ba.Substrate.c_f = f;
      c_bits = bp.Ba.Substrate.c_bits + (2 * n * n * share);
      c_rounds = bp.Ba.Substrate.c_rounds + 2;
    }

  let run (ctx : Ctx.t) input =
  let n = ctx.Ctx.n in
  let k = Ctx.quorum ctx in
  (* One memoized codec context per (n, k), whose split-product tables
     ((n−k)·k KiB) serve every FINDPREFIX iteration and every concurrent
     session at these parameters. *)
  let codec = Reed_solomon.ctx ~n ~k in
  (* Step 1: erasure-code the input and commit to the codewords. *)
  let codewords = Reed_solomon.encode_with codec input in
  let tree = Merkle.build codewords in
  let z = Merkle.root tree in
  (* Step 2: agree on a root. *)
  let* z_agreed = BP.run ctx z in
  match z_agreed with
  | None -> Proto.return None
  | Some z_star ->
      Proto.with_label "ext_distribute"
        (let mine = String.equal z z_star in
         (* A holder of the committed value already knows every authenticated
            tuple; everyone else learns its own from round 3a. Matching
            parties materialize all n tuples once — each is both sent in 3a
            and kept in [shares] below, and witness + encode per tuple is the
            expensive half of the round. *)
         let tuples =
           if mine then
             Array.init n (fun j ->
                 encode_tuple ~index:j ~codeword:codewords.(j)
                   ~witness:(Merkle.witness tree j))
           else [||]
         in
         (* Step 3a: matching parties ship codeword j to party j. *)
         let* inbox_a =
           Proto.exchange (fun j -> if mine then Some tuples.(j) else None)
         in
         let shares = Hashtbl.create n in
         (* A matching party's table is full from the start, so it checks no
            witness and needs no checker. *)
         let harvest =
           if mine then begin
             Array.iteri (fun j c -> Hashtbl.add shares j (c, tuples.(j))) codewords;
             ignore
           end
           else harvest ~n ~checker:(Merkle.checker ~root:z_star ~leaves:n) ~into:shares
         in
         harvest inbox_a;
         (* Step 3b: republish your own verified codeword to everyone. *)
         let republish =
           Option.map snd (Hashtbl.find_opt shares ctx.Ctx.me)
         in
         let* inbox_b =
           match republish with
           | Some raw -> Proto.broadcast raw
           | None -> Proto.receive_only ()
         in
         harvest inbox_b;
         (* Step 4: reconstruct from n−t verified codewords. The decoder
            takes the n−t lowest indices held, in whatever order the table
            yields them, and copies each systematic codeword among them
            (indices below n−t) straight into the value; with no faulty
            party below n−t it interpolates nothing. Lemma 6 makes failure
            unreachable when Π_BA+ returned non-⊥; stay total anyway.
            A matching party skips the reconstruction: its shares are its own
            complete codeword set, whose decode is the committed input by the
            Reed-Solomon round-trip identity (differentially tested). *)
         if mine then Proto.return (Some input)
         else
           let collected =
             Hashtbl.fold (fun index (codeword, _) acc -> (index, codeword) :: acc) shares []
           in
           match Reed_solomon.decode_with codec collected with
           | Ok value -> Proto.return (Some value)
           | Error _ -> Proto.return None)
end

include Make (Ba.Substrate.Unauthenticated)
