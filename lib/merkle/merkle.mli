(** Merkle-tree accumulator (Section 7, [39]): compresses a sequence of [n]
    values into a κ-bit root; a witness of O(κ·log n) bits proves membership
    of the i-th value.

    Leaves are domain-separated from inner nodes ("\x00" / "\x01" prefixes) so
    that an inner node can never be confused with a leaf — the standard
    defence against second-preimage shortcuts.

    MT.BUILD is [build]; MT.VERIFY is [verify]. *)

type root = string
(** 32-byte binary digest. *)

type witness
(** Authentication path from a leaf to the root, held as its wire bytes:
    a depth byte, then the packed 32-byte sibling digests, leaf level
    first. *)

type tree

val build : string array -> tree
(** [build values] constructs the tree over [values] in order (the paper's
    multiset {s_1, ..., s_n}; order matters — index [i] corresponds to party
    [P_i]). Raises [Invalid_argument] on an empty array. *)

val root : tree -> root

val witness : tree -> int -> witness
(** [witness t i] proves membership of leaf [i] (0-indexed).
    Raises [Invalid_argument] if [i] is out of range. *)

val verify : root:root -> index:int -> value:string -> witness -> bool
(** [verify ~root ~index ~value w]: does [w] prove that [value] is the
    [index]-th leaf of the tree with root hash [root]? Total on arbitrary
    (adversarial) witnesses. *)

val leaf_count : tree -> int

val witness_size_bits : witness -> int
(** Wire size of the witness (for communication accounting): O(κ·log n). *)

val encode_witness : witness -> string
(** The wire bytes; no copy is made. *)

val decode_witness : string -> witness option
(** Defensive decoding of untrusted bytes: [None] unless the length is
    exactly one depth byte plus that many 32-byte siblings. The digests
    themselves are only checked by {!verify}. *)
