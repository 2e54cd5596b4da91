"""Cryptographic substrate (Section 6 + Appendix A).

Pure-Python implementations of everything the paper's security layer
needs — the environment is offline, so no external crypto library is
used:

* :mod:`repro.crypto.xtea` — XTEA, the 8-byte block cipher every scheme
  encrypts under (the paper's smart card hardwires 3DES, but the
  architecture is cipher-agnostic, as the paper stresses; simulated
  decryption time always uses the Table 1 throughput);
* :mod:`repro.crypto.modes` — ECB, CBC and the paper's position-XOR ECB
  (``E_k(b XOR p)``) that makes equal plaintext blocks encrypt
  differently without CBC's random-access penalty;
* :mod:`repro.crypto.merkle` — Merkle hash trees over chunk fragments
  with sibling-path proofs (Fig. F1);
* :mod:`repro.crypto.chunks` — the chunk / fragment / block layout of
  Appendix A;
* :mod:`repro.crypto.integrity` — the four protection schemes compared
  in Fig. 11: ECB (confidentiality only), CBC-SHA, CBC-SHAC and
  ECB-MHT (the paper's proposal), all exposing random-access reads with
  per-scheme cost accounting.
"""

from repro.crypto.xtea import Xtea
from repro.crypto.modes import (
    BlockCipher,
    decrypt_cbc,
    decrypt_ecb,
    decrypt_positioned,
    encrypt_cbc,
    encrypt_ecb,
    encrypt_positioned,
)
from repro.crypto.merkle import MerkleTree, verify_with_siblings
from repro.crypto.chunks import ChunkLayout
from repro.crypto.integrity import (
    SCHEMES,
    CbcShaScheme,
    CbcShacScheme,
    EcbMhtScheme,
    EcbScheme,
    IntegrityError,
    SecureDocument,
    make_scheme,
)

__all__ = [
    "Xtea",
    "BlockCipher",
    "encrypt_ecb",
    "decrypt_ecb",
    "encrypt_cbc",
    "decrypt_cbc",
    "encrypt_positioned",
    "decrypt_positioned",
    "MerkleTree",
    "verify_with_siblings",
    "ChunkLayout",
    "IntegrityError",
    "SecureDocument",
    "EcbScheme",
    "CbcShaScheme",
    "CbcShacScheme",
    "EcbMhtScheme",
    "SCHEMES",
    "make_scheme",
]
