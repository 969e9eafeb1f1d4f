(** The "cryptographic setup" of the authenticated setting: every party holds
    a (stateful, hash-based) signing key, and all public keys are known to
    everyone — a PKI. This is exactly the assumption under which the paper's
    conclusion asks whether t < n/2 CA with optimal communication is
    possible; the [Auth] protocols explore the classical (communication-
    heavy) end of that question.

    Key generation is deterministic in the seed, so simulator runs remain
    reproducible. The adversary knows corrupted parties' secrets (it runs
    them) but, lacking SHA-256 preimages, cannot forge honest signatures.

    Each party's key pair is generated the first time it is needed: a run
    that never signs or verifies (the adaptive fast path) pays nothing for
    it. The per-party PRNG sub-streams are split from the master at
    [generate] ([Prng.split] advances the master), so every key is the one
    eager generation would have made, whichever party is forced first. *)

type t = { keys : (Sigs.Xmss.signer * Sigs.Xmss.public) Lazy.t array }

let generate ~seed ~n ~capacity =
  let master = Net.Prng.create seed in
  {
    keys =
      Array.init n (fun i ->
          let rng = Net.Prng.split master ~salt:i in
          lazy (Sigs.Xmss.generate rng ~capacity));
  }

let parties setup = Array.length setup.keys
let signer setup party = fst (Lazy.force setup.keys.(party))
let public setup party = snd (Lazy.force setup.keys.(party))

let verify setup ~party ~msg signature =
  party >= 0
  && party < parties setup
  && Sigs.Xmss.verify ~public:(public setup party) ~msg signature
