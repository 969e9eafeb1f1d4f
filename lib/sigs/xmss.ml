(** A stateful many-time signature scheme in the XMSS style: N Lamport
    one-time keys whose public digests form a Merkle tree; the public key is
    the root; signature i carries the OTS index, the OTS public digest with
    its Merkle authentication path, and the Lamport signature.

    This is the "cryptographic setup" assumed by the authenticated-setting
    protocols ({!Auth.Dolev_strong}, {!Auth.Auth_ca}): every party's root is
    known to all (a PKI).

    The signer is stateful — each one-time key is used at most once; signing
    beyond capacity raises. *)

type signer = {
  secrets : Lamport.secret array;
  publics : string array;  (** OTS public digests, for re-building paths *)
  tree : Merkle.tree;
  mutable next : int;
}

type public = string
(** The Merkle root. *)

type signature = {
  index : int;
  ots_public : string;
  witness : Merkle.witness;
  ots_signature : Lamport.signature;
}

(** [generate rng ~capacity] — [capacity] one-time keys. *)
let generate rng ~capacity =
  if capacity < 1 then invalid_arg "Xmss.generate: capacity";
  let pairs = Array.init capacity (fun _ -> Lamport.generate rng) in
  let secrets = Array.map fst pairs in
  let publics = Array.map snd pairs in
  let tree = Merkle.build publics in
  ({ secrets; publics; tree; next = 0 }, Merkle.root tree)

let remaining signer = Array.length signer.secrets - signer.next

let sign signer msg =
  if remaining signer = 0 then failwith "Xmss.sign: key exhausted";
  let index = signer.next in
  signer.next <- index + 1;
  {
    index;
    ots_public = signer.publics.(index);
    witness = Merkle.witness signer.tree index;
    ots_signature = Lamport.sign signer.secrets.(index) msg;
  }

let verify ~public ~msg signature =
  signature.index >= 0
  && Merkle.verify ~root:public ~index:signature.index ~value:signature.ots_public
       signature.witness
  && Lamport.verify ~public:signature.ots_public ~msg signature.ots_signature

(** {1 Wire codecs} *)

let encode_signature s =
  Wire.(
    encode
      (seq
         [
           w_varint s.index;
           w_bytes s.ots_public;
           w_bytes (Merkle.encode_witness s.witness);
           w_bytes (Lamport.encode_signature s.ots_signature);
         ]))

let decode_signature raw =
  let open Wire in
  decode_full
    (fun cur ->
      let* index = r_varint cur in
      let* ots_public = r_bytes () cur in
      let* witness_raw = r_bytes () cur in
      let* witness = Merkle.decode_witness witness_raw in
      let* ots_raw = r_bytes () cur in
      let* ots_signature = Lamport.decode_signature ots_raw in
      Some { index; ots_public; witness; ots_signature })
    raw

(* Upper bound on the encoded size, for capacities up to 2^20 one-time keys:
   the Lamport payload with its length prefix, the 32-byte OTS public digest,
   a ≤ 3-byte varint index, and a ≤ 20-level authentication path at 32 bytes
   + framing per level.  The true size varies with capacity and index (the
   witness depth is ⌈log₂ capacity⌉); this constant is what the cost model
   quotes. *)
let signature_bytes = Lamport.signature_bytes + 3 + 32 + 2 + 3 + (20 * 34) + 8
