(** Lamport one-time signatures over SHA-256 — hash-based signatures need no
    number theory, so they are the natural scheme for this repository's
    sealed toolchain (and the in-simulation adversary cannot forge them
    without inverting SHA-256).

    Key: 2×256 random 32-byte preimages; the public key is the digest of the
    512 corresponding hashes. A signature reveals, for each bit of the
    message digest, one preimage — plus the 256 unrevealed hashes needed to
    recompute the public-key digest.

    STRICTLY ONE-TIME: signing two different messages with one key leaks
    enough preimages to forge. {!Xmss} builds a stateful many-time scheme on
    top. *)

let hash_bits = 256
let digest_size = Sha256.digest_size

(* The secret is the PRNG state the preimages were drawn from, not the 512
   preimages: [preimages] replays the draws when the key signs, so an XMSS
   signer's unused keys cost 8 bytes each instead of 16 KB. *)
type secret = { origin : Net.Prng.t }

type public = string
(** 32-byte digest of the 512 public hashes. *)

type signature = {
  revealed : string array;  (** preimage for each digest bit, 256 entries *)
  others : string array;  (** hash of the unrevealed preimage, 256 entries *)
}

(* [bit].[0|1] -> 32 bytes. *)
let draw rng =
  Array.init hash_bits (fun _ ->
      [| Net.Prng.bytes rng digest_size; Net.Prng.bytes rng digest_size |])

let preimages secret = draw (Net.Prng.copy secret.origin)

let generate (rng : Net.Prng.t) =
  let origin = Net.Prng.copy rng in
  let preimages = draw rng in
  let ctx = Sha256.init () in
  Array.iter
    (fun pair ->
      Sha256.feed ctx (Sha256.digest pair.(0));
      Sha256.feed ctx (Sha256.digest pair.(1)))
    preimages;
  ({ origin }, Sha256.finalize ctx)

let message_bit digest i = Char.code digest.[i / 8] land (0x80 lsr (i mod 8)) <> 0

let sign secret msg =
  let preimages = preimages secret in
  let digest = Sha256.digest msg in
  let revealed = Array.make hash_bits "" in
  let others = Array.make hash_bits "" in
  for i = 0 to hash_bits - 1 do
    let b = if message_bit digest i then 1 else 0 in
    revealed.(i) <- preimages.(i).(b);
    others.(i) <- Sha256.digest preimages.(i).(1 - b)
  done;
  { revealed; others }

let verify ~public ~msg signature =
  Array.length signature.revealed = hash_bits
  && Array.length signature.others = hash_bits
  && Array.for_all (fun s -> String.length s = digest_size) signature.revealed
  && Array.for_all (fun s -> String.length s = digest_size) signature.others
  &&
  let digest = Sha256.digest msg in
  let ctx = Sha256.init () in
  for i = 0 to hash_bits - 1 do
    let revealed_hash = Sha256.digest signature.revealed.(i) in
    if message_bit digest i then begin
      Sha256.feed ctx signature.others.(i);
      Sha256.feed ctx revealed_hash
    end
    else begin
      Sha256.feed ctx revealed_hash;
      Sha256.feed ctx signature.others.(i)
    end
  done;
  String.equal (Sha256.finalize ctx) public

(** {1 Wire codecs} *)

let encode_signature s =
  let buf = Buffer.create (2 * hash_bits * digest_size) in
  Array.iter (Buffer.add_string buf) s.revealed;
  Array.iter (Buffer.add_string buf) s.others;
  Buffer.contents buf

let signature_bytes = 2 * hash_bits * digest_size

let decode_signature raw =
  if String.length raw <> signature_bytes then None
  else
    let part off i = String.sub raw ((off + i) * digest_size) digest_size in
    Some
      {
        revealed = Array.init hash_bits (part 0);
        others = Array.init hash_bits (part hash_bits);
      }
