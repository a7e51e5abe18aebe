"""Dead ends: candidates over internal predicates that never reach the output.

Normalising a multi-head or multi-existential rule introduces internal
predicates that hold no facts; a candidate whose atom over one can
never be satisfied is dropped when keyed (:mod:`repro.core.dead_ends`).
These tests pin the verdict on hand-made queries, that it is built
lazily and taken before the run's key table, that dropping dead ends leaves
every final rewriting byte-identical (a golden table recorded before
they were dropped), that no flagged query derives a member of the final
rewriting (a brute-force search over the derivation graph with the
verdict off), and that theories without internal predicates count
exactly what they counted before.
"""

import hashlib
from functools import lru_cache

import pytest

from repro.core import dead_ends
from repro.core.dead_ends import DeadEndFilter, null_reach
from repro.core.frontier import (
    LABEL_REWRITING,
    CandidateQuery,
    Expansion,
    KernelState,
    merge_expansion,
)
from repro.core.rewriter import RewritingStatistics, TGDRewriter
from repro.dependencies.normalization import normalize
from repro.logic.flat import encode_query
from repro.queries.parser import parse_query
from repro.queries.ucq import QuerySet
from repro.scheduling import SequentialStrategy
from repro.workloads import get_workload, stock_exchange_example

#: The engines of the golden table: TGD-rewrite, TGD-rewrite*,
#: TGD-rewrite* with NC pruning and TGD-rewrite* without memoisation.
ENGINES = {
    "NY": {},
    "NY*": {"use_elimination": True},
    "NY*nc": {"use_elimination": True, "use_nc_pruning": True},
    "NY*nomemo": {"use_elimination": True, "use_memoisation": False},
}

#: ``workload query engine sha256(repr(list(result.ucq)))``, recorded
#: before dead ends were dropped.  ``running`` is the paper's running
#: example; the ``*X`` variants have no internal predicate.
GOLDEN = """
V q1 NY d20032432710d0856f960e2d998864f7163c5f58732d9a712445a54c11134762
V q2 NY e2c426acd2ddff7bb723f0e712be05ebdf6cde1c43f4cb94e5d68aa8877679ef
V q3 NY f2d7ad6717e2e9503f31242c727abfdf4c82b7a74378b6ee60a51c3dc93db20a
V q4 NY 7d6a7043b079b1da68a13c70e54893672462748939c8286192d4522931f7abca
V q5 NY 3ea470244d2d52834c9c093b0e4b0157908d1b3342715fa0ebe49744a30fd27d
V q1 NY* d20032432710d0856f960e2d998864f7163c5f58732d9a712445a54c11134762
V q2 NY* e2c426acd2ddff7bb723f0e712be05ebdf6cde1c43f4cb94e5d68aa8877679ef
V q3 NY* f2d7ad6717e2e9503f31242c727abfdf4c82b7a74378b6ee60a51c3dc93db20a
V q4 NY* 7d6a7043b079b1da68a13c70e54893672462748939c8286192d4522931f7abca
V q5 NY* 3ea470244d2d52834c9c093b0e4b0157908d1b3342715fa0ebe49744a30fd27d
V q1 NY*nc d20032432710d0856f960e2d998864f7163c5f58732d9a712445a54c11134762
V q2 NY*nc e2c426acd2ddff7bb723f0e712be05ebdf6cde1c43f4cb94e5d68aa8877679ef
V q3 NY*nc f2d7ad6717e2e9503f31242c727abfdf4c82b7a74378b6ee60a51c3dc93db20a
V q4 NY*nc 7d6a7043b079b1da68a13c70e54893672462748939c8286192d4522931f7abca
V q5 NY*nc 3ea470244d2d52834c9c093b0e4b0157908d1b3342715fa0ebe49744a30fd27d
V q1 NY*nomemo d20032432710d0856f960e2d998864f7163c5f58732d9a712445a54c11134762
V q2 NY*nomemo e2c426acd2ddff7bb723f0e712be05ebdf6cde1c43f4cb94e5d68aa8877679ef
V q3 NY*nomemo f2d7ad6717e2e9503f31242c727abfdf4c82b7a74378b6ee60a51c3dc93db20a
V q4 NY*nomemo 7d6a7043b079b1da68a13c70e54893672462748939c8286192d4522931f7abca
V q5 NY*nomemo 3ea470244d2d52834c9c093b0e4b0157908d1b3342715fa0ebe49744a30fd27d
S q1 NY 9776d9ed843e7c79adf267da622a543efd58e129a4ee54c962a02b5a82bc4022
S q2 NY 377b6af97661d7695f99c2b7a8d6fd0b6eb65b2643421f1ee1a2ba34a4d747b3
S q3 NY 375d144f4caa476409df77827be54cbb0ccca3f105f638b70f885292cf13cf52
S q4 NY 4f9a03e44ef143b5e812be449b6264f26e32d6590107e2af26db7ff2918ac201
S q5 NY a1e237b2feb660b21bf289dde806ff175e2b54975aa4aee380da7186e7f6fc7d
S q1 NY* 9776d9ed843e7c79adf267da622a543efd58e129a4ee54c962a02b5a82bc4022
S q2 NY* 1722577750c55b9a6c218e27f55aa818c0c952c695137003326d1369cd5f1b04
S q3 NY* d5eef0b04019aaaf7a9cf77fbc80d39efcfcbaaad83d2db14608407b523e0ae5
S q4 NY* df769cb24cccd6da8ff79911e9ae81e710674d6858d74af2f7cc76494588743b
S q5 NY* 6d814b5c2d1c5fe89933451475389bf45f1a12be0d45dbd857595701bd8b71cd
S q1 NY*nc 9776d9ed843e7c79adf267da622a543efd58e129a4ee54c962a02b5a82bc4022
S q2 NY*nc 1722577750c55b9a6c218e27f55aa818c0c952c695137003326d1369cd5f1b04
S q3 NY*nc d5eef0b04019aaaf7a9cf77fbc80d39efcfcbaaad83d2db14608407b523e0ae5
S q4 NY*nc df769cb24cccd6da8ff79911e9ae81e710674d6858d74af2f7cc76494588743b
S q5 NY*nc 6d814b5c2d1c5fe89933451475389bf45f1a12be0d45dbd857595701bd8b71cd
S q1 NY*nomemo 9776d9ed843e7c79adf267da622a543efd58e129a4ee54c962a02b5a82bc4022
S q2 NY*nomemo 1722577750c55b9a6c218e27f55aa818c0c952c695137003326d1369cd5f1b04
S q3 NY*nomemo d5eef0b04019aaaf7a9cf77fbc80d39efcfcbaaad83d2db14608407b523e0ae5
S q4 NY*nomemo df769cb24cccd6da8ff79911e9ae81e710674d6858d74af2f7cc76494588743b
S q5 NY*nomemo 6d814b5c2d1c5fe89933451475389bf45f1a12be0d45dbd857595701bd8b71cd
U q1 NY b6f7d81eb97fb7d34a4ec9473a8297b85e05c176001bdd610a4aadcbd62cab46
U q2 NY ec64e924384650378d4059b5abd999db7a5ebfcaf7d603deecd5d4de458fb454
U q3 NY 3f12673032905b4522a337849bbbae5709e05cc882b7ee6dfa3bcfc75f7569ac
U q4 NY 9d68f45ae1494a57fd607fb400b9f9e4f1c8b55960b367f0cc672dc43869ce83
U q5 NY c41b261c8c4a8d527a226db42cd2915647fa2b2026a547a562bd301060ff619a
U q1 NY* b6f7d81eb97fb7d34a4ec9473a8297b85e05c176001bdd610a4aadcbd62cab46
U q2 NY* 4f0adb20dbc81bf101e38f58c8df4b5f8b18195eb8cbb6e55941d91b15257b1a
U q3 NY* afabb3b3ef960ef74d0ba62c7b342ebcaab47195ea408b956cd4dded10c2ae75
U q4 NY* 1e7e78f34c297242c8b1b190a44f2d3770adb8a8f0dfec732b25cf60ed799155
U q5 NY* 68be962f0048f5e2bd944b3fcc9e718e66499cb08f3e07f5ce878b41ac73c0ce
U q1 NY*nc b6f7d81eb97fb7d34a4ec9473a8297b85e05c176001bdd610a4aadcbd62cab46
U q2 NY*nc 4f0adb20dbc81bf101e38f58c8df4b5f8b18195eb8cbb6e55941d91b15257b1a
U q3 NY*nc afabb3b3ef960ef74d0ba62c7b342ebcaab47195ea408b956cd4dded10c2ae75
U q4 NY*nc 1e7e78f34c297242c8b1b190a44f2d3770adb8a8f0dfec732b25cf60ed799155
U q5 NY*nc 68be962f0048f5e2bd944b3fcc9e718e66499cb08f3e07f5ce878b41ac73c0ce
U q1 NY*nomemo b6f7d81eb97fb7d34a4ec9473a8297b85e05c176001bdd610a4aadcbd62cab46
U q2 NY*nomemo 4f0adb20dbc81bf101e38f58c8df4b5f8b18195eb8cbb6e55941d91b15257b1a
U q3 NY*nomemo afabb3b3ef960ef74d0ba62c7b342ebcaab47195ea408b956cd4dded10c2ae75
U q4 NY*nomemo 1e7e78f34c297242c8b1b190a44f2d3770adb8a8f0dfec732b25cf60ed799155
U q5 NY*nomemo 68be962f0048f5e2bd944b3fcc9e718e66499cb08f3e07f5ce878b41ac73c0ce
A q1 NY fd671d9f3ce69a613dd53be8a028bd4830cb802d91cef0a682b114351908bab5
A q2 NY 13354824ab9e04c8793cb6f089340a7596019c59eebc5ebd0563883d7f1bb3de
A q3 NY 44f26bfa7aab288b330244067857a1825ba7a5257d870f1300f412444907c79a
A q4 NY c0932e1229c68aa12703304a37e11d08f0e61ff869f9ca7e960967ade216e653
A q5 NY ec4f88384b29987538ef5f31e8c43446f91d560ea8c5655e941826c114355b75
A q1 NY* 4434b5241b9ce7d7fa896a934e38566e03fe555d2cf38fe1635f80e1e032d003
A q2 NY* f140635a90fc5d1039d63c0363284c9f8fa4b5a125268c9f18d4ea9aca2029c9
A q3 NY* dc4d181ebaf902f34fceed94b36a4f90943621fadf10849eaf466b67b3038222
A q4 NY* b19f0fd300940e0d0146898791f8644365a3510629971fc59ce7669ec8e47fe5
A q5 NY* 672b7950b6ee0c34b807edd754e4a098e47235b194afa280420b546c9a4f7e2c
A q1 NY*nc 4434b5241b9ce7d7fa896a934e38566e03fe555d2cf38fe1635f80e1e032d003
A q2 NY*nc f140635a90fc5d1039d63c0363284c9f8fa4b5a125268c9f18d4ea9aca2029c9
A q3 NY*nc dc4d181ebaf902f34fceed94b36a4f90943621fadf10849eaf466b67b3038222
A q4 NY*nc b19f0fd300940e0d0146898791f8644365a3510629971fc59ce7669ec8e47fe5
A q5 NY*nc 672b7950b6ee0c34b807edd754e4a098e47235b194afa280420b546c9a4f7e2c
A q1 NY*nomemo 4434b5241b9ce7d7fa896a934e38566e03fe555d2cf38fe1635f80e1e032d003
A q2 NY*nomemo f140635a90fc5d1039d63c0363284c9f8fa4b5a125268c9f18d4ea9aca2029c9
A q3 NY*nomemo dc4d181ebaf902f34fceed94b36a4f90943621fadf10849eaf466b67b3038222
A q4 NY*nomemo b19f0fd300940e0d0146898791f8644365a3510629971fc59ce7669ec8e47fe5
A q5 NY*nomemo 672b7950b6ee0c34b807edd754e4a098e47235b194afa280420b546c9a4f7e2c
P5 q1 NY 862192af6f8cfce9a1d6b876b882a2eab4011995d1cd2c7c661a882a78c7d44c
P5 q2 NY 9bd9bf95bcd48465c8efc3d0099703e079ad2f04524f2f277ec412ba31fdd51c
P5 q3 NY 020e6d3d69e161361027ede293946f1335e9c4e42e18911ad809615fd691c721
P5 q4 NY 23343a9851ee084e2b9b5d84fcbd488422762a0b45edbeaafac237e2032faf6e
P5 q5 NY f9c270802e71893efd79836246b2a2bc5ea9b8d58e35dca4d0673030c7f4b00a
P5 q1 NY* 862192af6f8cfce9a1d6b876b882a2eab4011995d1cd2c7c661a882a78c7d44c
P5 q2 NY* 9bd9bf95bcd48465c8efc3d0099703e079ad2f04524f2f277ec412ba31fdd51c
P5 q3 NY* 261fd30cd7ed0aa06ecd4e8550f3aaad36627f9b751d75d4990a7d9d0a5d8480
P5 q4 NY* 0304bad98c16f3ef772a60dad5a15bf2da46641aa655bdbb89fe3d6f08bf9488
P5 q5 NY* 3d171e1782277738e7995f1deafb8774d59dc1b022ffc5dfb375b16de80cd16e
P5 q1 NY*nc 862192af6f8cfce9a1d6b876b882a2eab4011995d1cd2c7c661a882a78c7d44c
P5 q2 NY*nc 9bd9bf95bcd48465c8efc3d0099703e079ad2f04524f2f277ec412ba31fdd51c
P5 q3 NY*nc 261fd30cd7ed0aa06ecd4e8550f3aaad36627f9b751d75d4990a7d9d0a5d8480
P5 q4 NY*nc 0304bad98c16f3ef772a60dad5a15bf2da46641aa655bdbb89fe3d6f08bf9488
P5 q5 NY*nc 3d171e1782277738e7995f1deafb8774d59dc1b022ffc5dfb375b16de80cd16e
P5 q1 NY*nomemo 862192af6f8cfce9a1d6b876b882a2eab4011995d1cd2c7c661a882a78c7d44c
P5 q2 NY*nomemo 9bd9bf95bcd48465c8efc3d0099703e079ad2f04524f2f277ec412ba31fdd51c
P5 q3 NY*nomemo 261fd30cd7ed0aa06ecd4e8550f3aaad36627f9b751d75d4990a7d9d0a5d8480
P5 q4 NY*nomemo 0304bad98c16f3ef772a60dad5a15bf2da46641aa655bdbb89fe3d6f08bf9488
P5 q5 NY*nomemo 3d171e1782277738e7995f1deafb8774d59dc1b022ffc5dfb375b16de80cd16e
UX q1 NY b6f7d81eb97fb7d34a4ec9473a8297b85e05c176001bdd610a4aadcbd62cab46
UX q2 NY f6c5a543e0387c65341e2578385be9425baa5f475aad7399062663ae4c62f8b7
UX q3 NY 1911b8b68ab323d64baadbe54691b4f11b71a01186ac18e588d39f38069a5808
UX q4 NY 1b07e838265fc210358bace43e8f78b79ac171115e386050c16b918575c28ab7
UX q5 NY 829b7a356a3cb6cf1823215e674a29e0b25e13f4dd098621526bca02cf3fa324
UX q1 NY* b6f7d81eb97fb7d34a4ec9473a8297b85e05c176001bdd610a4aadcbd62cab46
UX q2 NY* 91599b4dcf671ed1348f95a0b62bb3b6f3548d443ebd93072ea1e1118358290f
UX q3 NY* 2dec2ba53d96b439c2c3424d61b0ab065ff6e5924f7e63cee60c653b55349fa8
UX q4 NY* 1e7e78f34c297242c8b1b190a44f2d3770adb8a8f0dfec732b25cf60ed799155
UX q5 NY* 3a34c0779bf3515c33920991334463e91e4a48d0531993055050316880c5de17
AX q1 NY b639bba111c7744f720b295ca7a76e2eb185d4980cc7a47f8a2b09a4494422d6
AX q2 NY 880bc074e46e3530a609748d50aae5c58648852a7cc9e4f53275b48d00b9ea92
AX q3 NY aaf825936c4dc50f263736cac727d6c158a138684b5d4438be4143917b65af6b
AX q4 NY 612de429fd2fdc28b3d165bdb24680b04fcafedd5ea4e0ec772d9e5dd1cf0ff7
AX q5 NY 36584eaf393c50b4a521ec4b7e6fd8566851d1cea506f1d9eaf1772a40d33017
AX q1 NY* 9a80e802d359cbca47b97bbd4a8917a557b10de69cb49e027edd9f0dbbe5acb0
AX q2 NY* 39d44b99fa4e4e141cd3d2a09b4cd4ddf8e90d8a9818045a97a60585be22fb93
AX q3 NY* b637a986e11bed4fd10d7847c2de2a3c7897cdaef03fc929d7fa53d754c0215b
AX q4 NY* c6475976511a7ded3101d8e5c3dee4d578fe7620158b88822456a39e572c9ea7
AX q5 NY* a51dfdc6a5fa580c677961caccac4cb388444c106dcbbda89e76e50368b510f8
P5X q1 NY 97b79f66b06722d70a7386724eb7a5eeab76bbdd219d8358e578011c8b69db10
P5X q2 NY 499db92fa1c6a1e4276d400b12a480c6b41448f2656203593c51ea33e503da2a
P5X q3 NY 30595da5febb709b470f91e9f1db8ca6534c6b13a84b433c1d50030af6b1b142
P5X q4 NY 71abe0e71822301e8b9d7320ca54f314fb60ce2afd9d895710d80f21b448f338
P5X q5 NY a0b8eb9476396d185b46ea3b1d415baeb0a69879d4fcf100401cdfd9fdf301d0
P5X q1 NY* 97b79f66b06722d70a7386724eb7a5eeab76bbdd219d8358e578011c8b69db10
P5X q2 NY* 499db92fa1c6a1e4276d400b12a480c6b41448f2656203593c51ea33e503da2a
P5X q3 NY* 42c9dbe7c9c447e12af088ecbc09d66afd9c7b1469038f4eb3de73158dddaf6a
P5X q4 NY* 7f8a8161ec853e178e50a32f5712a51ec6157c7acff3af44597555a0dbdcaccf
P5X q5 NY* c1b6df69f0e3daf127afb3958ece8faa97b0d1c668d5a5b0495dca9af69bf272
running q0 NY 5a62d7d830cfebb9734a3d19bac5488233fb03da1f3c00e8316ae7f6035fc04f
running q0 NY* 1dd8dd26f6ec99bda67818a51774521a5fc6dc4e702fae676a928d72d20a38bf
running q0 NY*nc 1dd8dd26f6ec99bda67818a51774521a5fc6dc4e702fae676a928d72d20a38bf
running q0 NY*nomemo 1dd8dd26f6ec99bda67818a51774521a5fc6dc4e702fae676a928d72d20a38bf
"""

#: The non-volatile counters of the theories without internal predicates,
#: recorded before dead ends were dropped, in this field order.
COUNTER_FIELDS = (
    "generated_by_rewriting",
    "generated_by_factorization",
    "pruned_by_constraints",
    "eliminated_atoms",
    "processed_queries",
    "interned_queries",
    "canonical_buckets",
    "canonical_collisions",
    "variant_lookups",
    "variant_cache_hits",
    "variant_exact_hits",
    "variant_confirmations",
    "rules_considered",
    "rules_skipped_by_index",
)
COUNTERS = """
V q1 NY 14 0 0 0 15 15 15 0 15 0 0 0 14 796
V q2 NY 15 0 0 0 16 16 16 0 29 13 13 0 28 836
V q3 NY 83 0 0 0 84 84 84 0 185 101 101 0 184 4352
V q4 NY 137 0 0 0 138 138 138 0 302 164 164 0 285 7167
V q5 NY 119 0 0 0 120 120 120 0 282 162 162 0 185 6295
V q1 NY* 14 0 0 0 15 15 15 0 15 0 0 0 14 796
V q2 NY* 15 0 0 0 16 16 16 0 29 13 13 0 28 836
V q3 NY* 83 0 0 0 84 84 84 0 185 101 101 0 184 4352
V q4 NY* 137 0 0 0 138 138 138 0 302 164 164 0 285 7167
V q5 NY* 119 0 0 0 120 120 120 0 282 162 162 0 185 6295
V q1 NY*nc 14 0 0 0 15 15 15 0 15 0 0 0 14 796
V q2 NY*nc 15 0 0 0 16 16 16 0 29 13 13 0 28 836
V q3 NY*nc 83 0 0 0 84 84 84 0 185 101 101 0 184 4352
V q4 NY*nc 137 0 0 0 138 138 138 0 302 164 164 0 285 7167
V q5 NY*nc 119 0 0 0 120 120 120 0 282 162 162 0 185 6295
V q1 NY*nomemo 14 0 0 0 15 15 15 0 15 0 0 0 14 796
V q2 NY*nomemo 15 0 0 0 16 16 16 0 29 13 13 0 28 836
V q3 NY*nomemo 83 0 0 0 84 84 84 0 185 101 101 0 184 4352
V q4 NY*nomemo 137 0 0 0 138 138 138 0 302 164 164 0 285 7167
V q5 NY*nomemo 119 0 0 0 120 120 120 0 282 162 162 0 185 6295
S q1 NY 6 0 0 0 7 7 7 0 7 0 0 0 6 218
S q2 NY 34 0 0 0 35 35 35 0 71 36 36 0 130 990
S q3 NY 294 0 0 0 295 295 295 0 842 547 547 0 1651 7789
S q4 NY 69 0 0 0 70 70 70 0 176 106 106 0 351 1889
S q5 NY 589 0 0 0 590 590 590 0 1978 1388 1388 0 4027 14853
S q1 NY* 6 0 0 0 7 7 7 0 7 0 0 0 6 218
S q2 NY* 0 0 0 2 1 1 1 0 1 0 0 0 2 30
S q3 NY* 0 0 0 3 1 1 1 0 1 0 0 0 3 29
S q4 NY* 0 0 0 3 1 1 1 0 1 0 0 0 3 29
S q5 NY* 0 0 0 4 1 1 1 0 1 0 0 0 4 28
S q1 NY*nc 6 0 0 0 7 7 7 0 7 0 0 0 6 218
S q2 NY*nc 0 0 0 2 1 1 1 0 1 0 0 0 2 30
S q3 NY*nc 0 0 0 3 1 1 1 0 1 0 0 0 3 29
S q4 NY*nc 0 0 0 3 1 1 1 0 1 0 0 0 3 29
S q5 NY*nc 0 0 0 4 1 1 1 0 1 0 0 0 4 28
S q1 NY*nomemo 6 0 0 0 7 7 7 0 7 0 0 0 6 218
S q2 NY*nomemo 0 0 0 2 1 1 1 0 1 0 0 0 2 30
S q3 NY*nomemo 0 0 0 3 1 1 1 0 1 0 0 0 3 29
S q4 NY*nomemo 0 0 0 3 1 1 1 0 1 0 0 0 3 29
S q5 NY*nomemo 0 0 0 4 1 1 1 0 1 0 0 0 4 28
UX q1 NY 2 0 0 0 3 3 3 0 3 0 0 0 3 135
UX q2 NY 370 0 0 0 371 371 371 0 1049 678 678 0 1508 15558
UX q3 NY 2485 0 0 0 2486 2486 2486 0 11025 8539 8539 0 16901 97455
UX q4 NY 1017 0 0 0 1018 1018 1018 0 2908 1890 1890 0 3173 43655
UX q5 NY 524 0 0 0 525 525 525 0 1755 1230 1230 0 1969 22181
UX q1 NY* 2 0 0 0 3 3 3 0 3 0 0 0 3 135
UX q2 NY* 1 0 0 2 2 2 2 0 2 0 0 0 3 89
UX q3 NY* 3 0 0 3 4 4 4 0 5 1 1 0 16 168
UX q4 NY* 2 0 0 2 3 3 3 0 3 0 0 0 3 135
UX q5 NY* 5 0 0 2 6 6 6 0 8 2 2 0 12 264
AX q1 NY 122 0 0 0 123 123 123 0 271 148 148 0 260 5029
AX q2 NY 194 16 0 0 196 196 196 0 464 268 267 1 641 7787
AX q3 NY 422 0 0 0 423 423 423 0 1312 889 889 0 2275 15914
AX q4 NY 561 31 0 0 564 564 564 0 1470 906 904 2 1985 22267
AX q5 NY 1409 0 0 0 1410 1410 1410 0 4700 3290 3290 0 7671 52959
AX q1 NY* 14 0 0 1 15 15 15 0 18 3 3 0 17 628
AX q2 NY* 11 0 0 2 12 12 12 0 15 3 3 0 26 490
AX q3 NY* 26 0 0 5 27 27 27 0 45 18 18 0 110 1051
AX q4 NY* 33 0 0 5 34 34 34 0 42 8 8 0 75 1387
AX q5 NY* 79 0 0 13 80 80 80 0 134 54 54 0 317 3123
P5X q1 NY 4 0 0 0 5 5 5 0 5 0 0 0 4 26
P5X q2 NY 16 0 0 0 17 17 17 0 25 8 8 0 25 77
P5X q3 NY 68 0 0 0 69 69 69 0 137 68 68 0 125 289
P5X q4 NY 303 0 0 0 304 304 304 0 797 493 493 0 636 1188
P5X q5 NY 1391 0 0 0 1392 1392 1392 0 4759 3367 3367 0 3249 5103
P5X q1 NY* 4 0 0 0 5 5 5 0 5 0 0 0 4 26
P5X q2 NY* 16 0 0 0 17 17 17 0 25 8 8 0 25 77
P5X q3 NY* 66 0 0 2 67 67 67 0 133 66 66 0 120 282
P5X q4 NY* 289 0 0 20 290 290 290 0 761 471 471 0 599 1141
P5X q5 NY* 1310 0 0 160 1311 1311 1311 0 4481 3170 3170 0 3025 4841
"""


def table(text: str) -> dict[tuple[str, str, str], list[str]]:
    """``(workload, query, engine) -> remaining fields`` of a table above."""
    rows = (line.split() for line in text.strip().splitlines())
    return {(row[0], row[1], row[2]): row[3:] for row in rows}


def cells(text: str) -> list[tuple[str, str]]:
    """The ``(workload, engine)`` pairs a table covers, in table order."""
    return list(dict.fromkeys((name, engine) for name, _, engine in table(text)))


def theory_and_queries(name: str):
    if name == "running":
        query = stock_exchange_example.running_query()
        return stock_exchange_example.theory(), [("q0", query)]
    workload = get_workload(name)
    return workload.theory, [(q, workload.query(q)) for q in workload.query_names]


@lru_cache(maxsize=None)
def compiled(name: str, engine: str) -> dict[str, tuple[str, RewritingStatistics]]:
    """Each query's UCQ digest and statistics, one engine per workload."""
    theory, queries = theory_and_queries(name)
    rewriter = TGDRewriter(theory, **ENGINES[engine])
    summary = {}
    for query_name, query in queries:
        result = rewriter.rewrite(query)
        digest = hashlib.sha256(repr(list(result.ucq)).encode()).hexdigest()
        summary[query_name] = (digest, result.statistics)
    return summary


def p5_internal():
    """P5's normalisation: ``Start(X) → aux(X, Y)`` invents ``Y`` at ``aux[2]``."""
    normalization = normalize(get_workload("P5").theory.tgds)
    (predicate,) = normalization.auxiliary_predicates
    return normalization, predicate


class TestVerdict:
    @pytest.fixture(scope="class")
    def judge(self):
        normalization, _ = p5_internal()
        return DeadEndFilter(normalization.rules, normalization.auxiliary_predicates)

    @pytest.fixture(scope="class")
    def aux(self):
        return p5_internal()[1].name

    def test_reach_of_the_invented_null(self, judge, aux):
        ((key, (index, reachable)),) = judge.reach.items()
        assert key == (aux, 2) and index == 1
        # The null reaches edge[2] and Target[1], never edge[1].
        assert reachable == {((aux, 2), 1), (("edge", 2), 1), (("Target", 1), 0)}

    @pytest.mark.parametrize(
        "body, head, dead",
        [
            ("{aux}(A, B), Target(B)", "", False),
            ("{aux}(A, B), edge(C, B)", "", False),
            ("{aux}(A, B), edge(A, C)", "A", False),
            ("{aux}(A, B), edge(B, C)", "", True),
            ("{aux}(A, c)", "", True),
            ("{aux}(A, B)", "B", True),
            ("{aux}(A, B), Start(B)", "", True),
            ("edge(A, B), edge(B, C)", "", False),
        ],
    )
    def test_verdicts(self, judge, aux, body, head, dead):
        query = parse_query(f"q({head}) :- {body.format(aux=aux)}")
        assert judge.is_dead_end(encode_query(query)) is dead

    def test_only_internal_predicates_with_one_null_inventing_rule(self):
        normalization = normalize(stock_exchange_example.theory().tgds)
        table_ = null_reach(normalization.rules, normalization.auxiliary_predicates)
        assert len(table_) == len(normalization.auxiliary_predicates) == 10
        assert null_reach(normalization.rules, ()) == {}


class TestEngine:
    def test_the_reach_table_is_built_on_first_use_and_shared(self, monkeypatch):
        builds = []

        def counting(rules, internal_predicates):
            builds.append(1)
            return null_reach(rules, internal_predicates)

        monkeypatch.setattr(dead_ends, "null_reach", counting)
        workload = get_workload("P5")
        engine = TGDRewriter(workload.theory, use_elimination=True)
        assert builds == []
        engine.rewrite(workload.query("q2"))
        engine.rewrite(workload.query("q3"))
        assert builds == [1]

    def test_theories_without_internal_predicates_are_never_judged(
        self, monkeypatch
    ):
        def refuse(self, flat):
            raise AssertionError("judged a candidate")

        monkeypatch.setattr(DeadEndFilter, "is_dead_end", refuse)
        workload = get_workload("S")
        for options in ENGINES.values():
            TGDRewriter(workload.theory, **options).rewrite(workload.query("q2"))

    def test_every_candidate_is_judged_before_the_run_table(self, monkeypatch):
        _, predicate = p5_internal()
        judged = []
        is_dead_end = DeadEndFilter.is_dead_end

        def counting(self, flat):
            judged.append(flat)
            return is_dead_end(self, flat)

        monkeypatch.setattr(DeadEndFilter, "is_dead_end", counting)
        engine = TGDRewriter(get_workload("P5").theory, use_elimination=True)
        run = engine.for_run()
        query = parse_query("q(A) :- edge(A, B), edge(B, C)")
        first = run.expand(query)
        dead = [c for c in first.candidates if c.dead_end]
        assert dead and all(c.query is None and c.fingerprint is None for c in dead)
        assert all(
            any(atom.predicate == predicate for atom in c.build().body)
            for c in dead
        )
        # The repeat finds its live keys in the run's table, and every
        # candidate is still judged first.
        second = run.expand(query)
        assert len(judged) == len(first.candidates) + len(second.candidates)
        assert [c.dead_end for c in second.candidates] == [
            c.dead_end for c in first.candidates
        ]

    @pytest.mark.parametrize("engine", ["NY", "NY*", "NY*nomemo"])
    def test_memoisation_on_and_off_drop_the_same_dead_ends(self, engine):
        (_, statistics) = compiled("P5", engine)["q5"]
        assert statistics.pruned_dead_ends == {"NY": 688}.get(engine, 659)
        assert statistics.interned_queries == {"NY": 294}.get(engine, 272)

    def test_the_merge_counts_and_drops_a_dead_end(self):
        state = KernelState.initial(parse_query("q(A) :- p(A)"), RewritingStatistics())
        dead = CandidateQuery(None, LABEL_REWRITING, dead_end=True)
        merge_expansion(state, Expansion(state.store.to_ucq()[0], (dead,)), 10)
        assert state.statistics.pruned_dead_ends == 1
        assert len(state.store) == 1 and len(state.frontier) == 1


@pytest.mark.parametrize("name, engine", cells(GOLDEN))
def test_final_rewritings_are_byte_identical(name, engine):
    summary = compiled(name, engine)
    golden = table(GOLDEN)
    for query_name, (digest, _) in summary.items():
        assert [digest] == golden[(name, query_name, engine)], query_name


@pytest.mark.parametrize("name, engine", cells(COUNTERS))
def test_theories_without_internal_predicates_count_as_before(name, engine):
    expected = table(COUNTERS)
    for query_name, (_, statistics) in compiled(name, engine).items():
        assert statistics.pruned_dead_ends == 0
        counted = [str(getattr(statistics, field)) for field in COUNTER_FIELDS]
        assert counted == expected[(name, query_name, engine)], query_name


class Recording(SequentialStrategy):
    """The sequential strategy, keeping every expansion it makes."""

    def __init__(self) -> None:
        self.expansions: list[Expansion] = []

    def expand_generation(self, engine, batch):
        for expansion in super().expand_generation(engine, batch):
            self.expansions.append(expansion)
            yield expansion


def brute_force(theory, engine: str, query) -> tuple[int, int, int]:
    """Check the verdict against the derivation graph of a verdict-free run.

    Runs the engine with an empty reach table, links every stored query
    to the stored form of each of its candidates, and requires every
    flagged query and every stored form of a flagged candidate to reach
    no member of the final rewriting.  Returns the stored queries: how
    many the verdict flags, how many reach no final member, and the
    number the engine keeps with the verdict on, which must be those
    reachable from the input through unflagged candidates.
    """
    recording = Recording()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DeadEndFilter, "reach", {})
        result = TGDRewriter(theory, **ENGINES[engine]).rewrite(
            query, strategy=recording
        )
    assert result.statistics.pruned_dead_ends == 0
    normalization = normalize(theory.tgds)
    judge = DeadEndFilter(normalization.rules, normalization.auxiliary_predicates)

    store = QuerySet(list(result.ucq) + list(result.auxiliary_queries))
    node = {id(stored): index for index, stored in enumerate(store)}
    final = {node[id(store.find_variant(member))] for member in result.ucq}
    flagged = {
        index
        for index, stored in enumerate(store)
        if judge.is_dead_end(encode_query(stored))
    }
    successors: dict[int, set[int]] = {index: set() for index in node.values()}
    kept_edges: dict[int, set[int]] = {index: set() for index in node.values()}
    flagged_targets = set()
    for expansion in recording.expansions:
        source = node[id(store.find_variant(expansion.source))]
        for candidate in expansion.candidates:
            target = node[id(store.find_variant(candidate.build()))]
            successors[source].add(target)
            if judge.is_dead_end(encode_query(*candidate.derivation)):
                flagged_targets.add(target)
            else:
                kept_edges[source].add(target)

    def closure(start: set[int], edges: dict[int, set[int]]) -> set[int]:
        seen, pending = set(start), list(start)
        while pending:
            for target in edges[pending.pop()]:
                if target not in seen:
                    seen.add(target)
                    pending.append(target)
        return seen

    predecessors: dict[int, set[int]] = {index: set() for index in node.values()}
    for source, targets in successors.items():
        for target in targets:
            predecessors[target].add(source)
    live = closure(final, predecessors)
    assert not (flagged | flagged_targets) & live
    initial = node[id(store.find_variant(recording.expansions[0].source))]
    kept = closure({initial}, kept_edges)
    return len(flagged), len(store) - len(live), len(kept)


#: Stored queries of each brute-force run, with the verdict off: how many
#: the verdict flags, and how many reach no member of the final rewriting.
#: On Table 1 the verdict flags every query that reaches none; on the
#: running example some such queries hold a null only through a Lemma 2
#: chain (``aux_e…_2[2]`` copies ``aux_e…_1``'s null), which the verdict
#: does not follow.
FLAGGED = {
    ("U", "q1", "NY"): (0, 0),
    ("U", "q2", "NY"): (256, 256),
    ("U", "q3", "NY"): (2136, 2136),
    ("U", "q4", "NY"): (44, 44),
    ("U", "q5", "NY"): (312, 312),
    ("A", "q1", "NY"): (0, 0),
    ("A", "q2", "NY"): (79, 79),
    ("A", "q3", "NY"): (408, 408),
    ("A", "q4", "NY"): (254, 254),
    ("A", "q5", "NY"): (1320, 1320),
    ("P5", "q1", "NY"): (0, 0),
    ("P5", "q2", "NY"): (6, 6),
    ("P5", "q3", "NY"): (39, 39),
    ("P5", "q4", "NY"): (212, 212),
    ("P5", "q5", "NY"): (1098, 1098),
    ("running", "q0", "NY"): (540, 984),
    ("U", "q1", "NY*"): (0, 0),
    ("U", "q2", "NY*"): (1, 1),
    ("U", "q3", "NY*"): (3, 3),
    ("U", "q4", "NY*"): (0, 0),
    ("U", "q5", "NY*"): (3, 3),
    ("A", "q1", "NY*"): (0, 0),
    ("A", "q2", "NY*"): (5, 5),
    ("A", "q3", "NY*"): (26, 26),
    ("A", "q4", "NY*"): (16, 16),
    ("A", "q5", "NY*"): (74, 74),
    ("P5", "q1", "NY*"): (0, 0),
    ("P5", "q2", "NY*"): (6, 6),
    ("P5", "q3", "NY*"): (38, 38),
    ("P5", "q4", "NY*"): (203, 203),
    ("P5", "q5", "NY*"): (1039, 1039),
    ("running", "q0", "NY*"): (1, 2),
}


@pytest.mark.parametrize("name", ["U", "A", "P5", "running"])
@pytest.mark.parametrize("engine", ["NY", "NY*"])
def test_no_flagged_query_derives_a_final_member(name, engine):
    theory, queries = theory_and_queries(name)
    for query_name, query in queries:
        flagged, dead, kept = brute_force(theory, engine, query)
        (_, statistics) = compiled(name, engine)[query_name]
        assert kept == statistics.interned_queries, query_name
        assert (flagged, dead) == FLAGGED[(name, query_name, engine)], query_name
