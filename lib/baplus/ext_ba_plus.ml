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
   per-message decode would be pure waste. The witnesses of one inbox, and
   of both rounds, share their upper nodes; the one [checker] per call
   hashes each such node once. *)
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
     O(κ log n) witnesses.  It charges the worst case, in which every party
     needs the value: n² tuples a round. A run sends tuples only to the
     parties whose root differs from the agreed one, none when every party
     committed to it.  Inherits BP's (hence B's) f-adaptivity. *)
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
  (* Step 2: agree on a root, keeping the root each party broadcast in
     Π_BA+'s first round. *)
  let* roots, z_agreed = BP.run_with_inputs ctx z in
  match z_agreed with
  | None -> Proto.return None
  | Some z_star ->
      Proto.with_label "ext_distribute"
        ((* A party that committed to z* holds the value and needs nothing.
            Everyone else does: an honest party sent every party the same
            root, so each honest party sees the same honest parties in
            need, and a party that sent no root counts as one. Both
            distribution rounds go only to them. *)
         let needs =
           Array.map
             (function Some root -> not (String.equal root z_star) | None -> true)
             roots
         in
         if String.equal z z_star then begin
           (* A holder encodes and authenticates only the tuples it sends. *)
           let tuple j =
             Some
               (encode_tuple ~index:j ~codeword:codewords.(j)
                  ~witness:(Merkle.witness tree j))
           in
           (* Step 3a: codeword j to each party j in need. *)
           let* _ = Proto.exchange (fun j -> if needs.(j) then tuple j else None) in
           (* Step 3b: its own codeword to each of them. *)
           let own = if Array.exists Fun.id needs then tuple ctx.Ctx.me else None in
           let* _ = Proto.exchange (fun j -> if needs.(j) then own else None) in
           (* Its codewords decode to its input by the Reed-Solomon
              round-trip identity (differentially tested). *)
           Proto.return (Some input)
         end
         else begin
           let shares = Hashtbl.create n in
           let harvest =
             harvest ~n ~checker:(Merkle.checker ~root:z_star ~leaves:n) ~into:shares
           in
           (* Step 3a: its own codeword, from the holders. *)
           let* inbox_a = Proto.receive_only () in
           harvest inbox_a;
           (* Step 3b: republish it to every party in need. *)
           let* inbox_b =
             match Hashtbl.find_opt shares ctx.Ctx.me with
             | Some (_, raw) ->
                 let republish = Some raw in
                 Proto.exchange (fun j -> if needs.(j) then republish else None)
             | None -> Proto.receive_only ()
           in
           harvest inbox_b;
           (* Step 4: reconstruct from n−t verified codewords. The decoder
              takes the n−t lowest indices held, in whatever order the table
              yields them, and copies each systematic codeword among them
              (indices below n−t) straight into the value; with no faulty
              party below n−t it interpolates nothing. Lemma 6 makes failure
              unreachable when Π_BA+ returned non-⊥; stay total anyway. *)
           let collected =
             Hashtbl.fold (fun index (codeword, _) acc -> (index, codeword) :: acc) shares []
           in
           match Reed_solomon.decode_with codec collected with
           | Ok value -> Proto.return (Some value)
           | Error _ -> Proto.return None
         end)
end

include Make (Ba.Substrate.Unauthenticated)
