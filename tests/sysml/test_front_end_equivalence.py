"""The front end's output, pinned element by element.

Every input below is parsed and folded into a model with
``build_model``; the digest of its :func:`fixtures.front_end_signature`
(class, node path, location and syntax fields of each element, in
pre-order) must equal the digest pinned here. Malformed inputs pin the
error instead: its class, message and location. The pins were computed
with the two-layer front end this parser replaced (an AST, then a
builder), so they hold the single pass to exactly what that one built.
"""

import pytest

from fixtures import front_end_digest

from repro.icelab.model_gen import icelab_sources
from repro.sysml import build_model, parse
from repro.sysml.errors import SysMLError
from repro.sysml.stdlib import SCALAR_VALUES_SOURCE
from repro.testkit.corpus import CorpusConfig, generate_scenario
from repro.testkit.scale import mega_factory_sources

#: One case per grammar production, including the branches the parser
#: once took by parsing ahead and rewinding.
GRAMMAR = {
    "package": "package P { package Q { } }",
    "imports": "package P { import A; import A::B; import A::*; "
               "import A::*::*; }",
    "definitions": "abstract part def A :> B, C::D { attribute def E; "
                   "port def F specializes G; action def H; item def I; "
                   "interface def J { end a : ~F; end b : F~; end c; } "
                   "connection def K; }",
    "specializes-after-shorthand": "part def A :> specializes B;",
    "usages": "part p : P [4]; ref part q : Q [*]; part r [1..2] : R; "
              "part s : S [1..*]; part : T; abstract part u :> v, w; "
              "attribute a redefines b : Real; attribute c :>> d;",
    "values": "attribute a = 'str'; attribute b : Integer = 5557; "
              "attribute c = -3; attribute d = -1.5; attribute e = 2.5e3; "
              "attribute f = true; attribute g = false; "
              "attribute h = x.y::z;",
    "directions": "action a { in attribute x : Real; out y : Boolean; "
                  "inout 'quoted name' : T; in item : String; "
                  "out port : Integer; in connection : C; "
                  "out action op { out ready : Boolean; } }",
    "assignments": "action a { out x = a.b; in y = 5; inout z = 'q'; }",
    "bind": "part p { bind a.b = c::d; }",
    "connect-anonymous": "connect a.b to c.d;",
    "connection-named": "connection c connect a to b;",
    "connection-typed": "connection : T connect a to b;",
    "connection-named-typed": "connection c : T::U connect a.x to b.y;",
    "connection-directed": "in connection c : T connect a to b;",
    "interface-named-typed": "interface i : I connect a to b;",
    "interface-typed": "interface : I connect m.p to d.p;",
    "interface-no-connect": "interface i : I;",
    "interface-no-connect-body": "interface i : T { }",
    "interface-postfix-conjugated": "interface i : I~;",
    "interface-prefix-conjugated": "interface i : ~I;",
    "connection-usage-clauses": "connection c [2] :> d { end e : P; }",
    "connection-anonymous-usage": "connection;",
    "part-named-connect": "part connect : T;",
    "perform": "perform p.op { out r = a.b; } perform q;",
    "shorthand": "part p : P { :>> x = 5; :>> y : Real = -1.5; "
                 ":>> z { attribute w = true; } :>> A::v : ~W; }",
    "enum": "enum def E :> Base { red; green; 'quoted'; }",
    "alias": "package P { alias A for Q::R; alias 'b c' for S; }",
    "docs": """
        doc /* top-level docs are dropped */
        package P {
            doc /**/
            doc /* package */
            doc /* second */
            part def D { doc /* definition */ part x; doc /* late */ }
            part u : D { doc /* usage */ }
            :>> r { doc /* shorthand */ }
            perform a.b { doc /* perform */ out x = y; }
            enum def E { doc /* enum */ red; doc /* later */ }
            action act { /* plain comment */ }
            part def Late { part x; doc /* after a member */ }
        }
    """,
}

#: Malformed inputs and the error each raises.
MALFORMED = {
    "connection c : ;": (
        "ParseError", "expected a name but found ';'", "<model>:1:16"),
    "connection connect;": (
        "ParseError", "expected a name but found ';'", "<model>:1:19"),
    "connection c : ~T connect a to b;": (
        "ParseError", "expected ';' but found 'connect'", "<model>:1:19"),
    "interface i : T connect a;": (
        "ParseError", "expected keyword 'to' but found ';'", "<model>:1:26"),
    "part def A { attribute x : T }": (
        "ParseError", "expected ';' but found '}'", "<model>:1:30"),
    "part def A {": (
        "ParseError", "unterminated body: missing '}'", "<model>:1:13"),
    "enum def E { red;": (
        "ParseError", "expected a name but found ''", "<model>:1:18"),
    "part def A { = ; }": (
        "ParseError", "unexpected token '=' at start of member",
        "<model>:1:14"),
    "import ;": (
        "ParseError", "expected a name but found ';'", "<model>:1:8"),
    "part def A {\n  to to;\n}": (
        "ParseError", "unexpected token 'to' at start of member",
        "<model>:2:3"),
    "doc part def A;": (
        "ParseError", "expected /* ... */ block after 'doc'",
        "<model>:1:5"),
    "attribute x = -y;": (
        "ParseError", "expected numeric literal after '-', found 'y'",
        "<model>:1:16"),
    "attribute x = ;": (
        "ParseError", "expected expression, found ';'", "<model>:1:15"),
    "part x [1..;": (
        "ParseError", "expected 'INTEGER' but found ';'", "<model>:1:12"),
    "alias A B;": (
        "ParseError", "expected keyword 'for' but found 'B'",
        "<model>:1:9"),
    "enum E { }": (
        "ParseError", "expected keyword 'def' but found 'E'",
        "<model>:1:6"),
    "out x = ;": (
        "ParseError", "expected expression, found ';'", "<model>:1:9"),
    "out def : X;": (
        "ParseError", "expected ';' but found 'def'", "<model>:1:5"),
    "part def P; 'open": (
        "LexerError", "unterminated string literal", "<model>:1:13"),
    "out x €": (
        "LexerError", "unexpected character '€'", "<model>:1:7"),
    "connection c : €": (
        "LexerError", "unexpected character '€'", "<model>:1:16"),
    "part def A { part b : B; } part €": (
        "LexerError", "unexpected character '€'", "<model>:1:33"),
}

#: sha256 of the front-end signature of each input.
DIGESTS = {
    'corpus-0-hostile': '255af9c0d9020038920a3b8785789dc3fa71e8b15784d8329092dfada79c04de',
    'corpus-0-tame': '6f4c604492c26ed0f19fd9246a5ecf4b44265c69b90f079e9719b66ad2a715d0',
    'corpus-1-hostile': 'bd6e7101b7456cbd565b6a501df14cd5f08b20f715d9b97a6f1ae7ab2b015c04',
    'corpus-1-tame': '0039aa97e9c414e425dd88a63995a08c6f6426c100dbc195d59aece4f616b326',
    'corpus-10-hostile': 'ea0314118c3a3c670d73e16190b5096f890876e7a95277ed9136069265dcfec1',
    'corpus-10-tame': '07fe54a4f9c90490dbc68bd3fe8e5aae4e071d43fe0deb6ba7e23934b98f6a1f',
    'corpus-11-hostile': '550ab02231de69949be912c64250821a6bcc581591b05a38fa28405407639a45',
    'corpus-11-tame': '6f7b147d0fd14f2752b6459e7b3ce9ae4da17bfb3958cee63c725b192ebdcd79',
    'corpus-12-hostile': '6dfdd491c451276a48a6f2e585754716ddb38cdc57ef62f84ae486137ea2d395',
    'corpus-12-tame': '6e8573af0bd63eb82265a741c84fa30b4dd3a192f93c08f0dd509da6e0c90286',
    'corpus-13-hostile': '4e33c8dfab448e9e477d79f25437a994645ecaa3fe3d12f59d3553aa71b4d7bb',
    'corpus-13-tame': '19a902e85c333a1b591a71723f8bfb8b3b700e47757a96059d9f45519d471102',
    'corpus-14-hostile': '5625319cd0f470637aeb762f6afc2313e5e334f8cf69a71e56d39043d2158169',
    'corpus-14-tame': '83db6f47473ffa427cc6cb7929c4111ce58700dffea32b8c42899fec529eeaec',
    'corpus-15-hostile': 'f6cb0d0c39e2c26c376c66f35d5e031f01c521af6c425836ef84d1ed6ac26b73',
    'corpus-15-tame': 'af1440772b4e68fb13ec090c62fb52617252818028ec8cdb2a73c41bd7270dc3',
    'corpus-16-hostile': '2ef23998b5fb6361749ac9289334f2a782c9640b421d7c9697f8676053b623c2',
    'corpus-16-tame': 'c391db4cb0de7fdf654677d60350218420f01d77646477498579faaf3c0a31b5',
    'corpus-17-hostile': '5e99eba6461f6c9b329cbb4924ba09192aff84272b135535b1cbe6627215357f',
    'corpus-17-tame': 'f887e69209c83b1a284796ab1be892350c1273d32c1810904603f657265f5666',
    'corpus-18-hostile': '165ebccedbe21d091231b961f0b9ab9846b2317f36a88271acdec39354840c00',
    'corpus-18-tame': '167351b9ef63db8c1dcdb9d55ff7cad5cd2df9c78b2b1b2ebd9dc204fec19879',
    'corpus-19-hostile': '37c0f8642344f115d29a19ff33f741103787cea2b9f526b05a82bca07d910287',
    'corpus-19-tame': '28c8a470e706a1f86765a749387b2380fdb785243c2abebd02c25320d9abe7ba',
    'corpus-2-hostile': 'a10179ec5647d830ec02bf2ed4ce0189f831a22849b4e6358fa2f1df4fa2d747',
    'corpus-2-tame': 'd6e08b00452c73c3f9a9af410778342b87d794d198cc407e06550ad0019cf1bf',
    'corpus-20-hostile': '47c33bee935cf8026db146cb74add09f878fddc3e9501e8ac603844883a8dbea',
    'corpus-20-tame': '0fd24ca2dfa9b6aeb430d0782b6145efe24ccf3b5bbb611039a36b6401d7fa97',
    'corpus-21-hostile': '78304e8b38ae02ef2ffddea9b5b899cc3f97d83c4c4521c4dce96267775415d0',
    'corpus-21-tame': 'a42fd809fd1f90770e4991683153d031e480dbbf5f342867a084434967249976',
    'corpus-22-hostile': '9d8d37ec61afb54a2a8989a8125e92fd9c5ae241a19ddcd61e31237931a535a6',
    'corpus-22-tame': '6fa40da3e5138e67d9a88508eaadc95156fd97d4414f8fafaa6946621d7cfe65',
    'corpus-23-hostile': 'f72ead8835423ee98271d7f58ef51f8afa3a90cc7543bb2f841662a863815e25',
    'corpus-23-tame': '2b8aa9a9903b73cc54d1ecd52a4d85243094bacc201482b331d04769cc497b17',
    'corpus-24-hostile': '1f13173ef76002f97736fa1e1981b4fd26e5c60204baedbe710abc83e2420056',
    'corpus-24-tame': '629a5d6ca9fe8050499b93cfcef896b066264f20d9764ae335aa8f682f4216f5',
    'corpus-3-hostile': 'f8bdca6f2235fe1ea1364d42b0ae7b7e3d6153ee9f2d78f94e02bbeffdca176e',
    'corpus-3-tame': 'b137ac18c0fbb56cccbdc52c44ff5bf9807b1b229cbd025cdd4f32ad9cb9dd13',
    'corpus-4-hostile': 'efda1e6c916dd3cf7f464dc84dc119b2a4b3fc03f7fc80644a08a011f813aa30',
    'corpus-4-tame': '9e99b9b9493d685c138ea79ab9df2fed36ef3cf0f32c01c052239ab2af1b07c9',
    'corpus-5-hostile': 'bec3c8ce59ce8e4b26a0187277ee47a55cf972e5aa30ea93f25e6bcf48be7bf7',
    'corpus-5-tame': 'baea86e1cb61cfa104a762ca136f4e668eccb20bd7f88fa503a12013ce57c26c',
    'corpus-6-hostile': '7b41b8f2e95147d9eafd8f606d5aeea9dedcecb0dc58362ecddba42fb3791018',
    'corpus-6-tame': 'd4f0b20d0ea4e275b47b1d2c62c23d5147dae711d8fba2a4011d6039e31d242f',
    'corpus-7-hostile': 'e00cbd476a3349c832e3e7bbb68bcf9398f7d75b46dee9072ae8a26b48b3b554',
    'corpus-7-tame': '889025a861a256779173590d6340143c2698825eb4a3d62687e1f68908342f0a',
    'corpus-8-hostile': '833c60b03ad2724b85dd60ea7b812fa2dc3e2ee5422f3daab46d968a66ca8eaf',
    'corpus-8-tame': '7125955f6e1096280be8b56006548f816c2b6c213dfed5d4a34f549a19435323',
    'corpus-9-hostile': '0fa94f2e3eb6e80c38c65ef5a88250d2495f47d58ba4bed942ae7d47696d539b',
    'corpus-9-tame': '08d6f65da314e5d6925fffcd8ba2e7f97cadd75843cd244b352f135edf0fbe5b',
    'grammar-alias': '8fd6a2463ce2e7258d06a7a9bd3bbe60778491460aec35b4f2c12a8a07a8c212',
    'grammar-assignments': 'af7a2ca76d860d7f7c507c382379516b26c05fa9663ac2374820787977bc4433',
    'grammar-bind': '04e938821a942e0fa962dd04b28b6dd012f85db1e9c54a110a7583fda7fb32ff',
    'grammar-connect-anonymous': 'f568c1e5ab41f24115ae33bd06736dc8811410d7f0355f3cd68d53501c4d133b',
    'grammar-connection-anonymous-usage': 'ee5201de455f1287b64574eb5e2bca50554a586991b59046b94aa553ffda2a10',
    'grammar-connection-directed': 'a0bd172a444773d3089f9d59aa8b82c75ceb147b1d173ac837c842a785fc08c5',
    'grammar-connection-named': 'f8f726dd61fba70ef8101c44e8c051cde419e29c39b4989b8d35a1069675d704',
    'grammar-connection-named-typed': 'c556b4d58b4bd0992734d228858b20bf685d3a5a185fe2af7211cce66e606088',
    'grammar-connection-typed': '77112bcaa7df0e5d5a061ce9488141549facfbfe0eef9f8b95eeb0e0cdc58d10',
    'grammar-connection-usage-clauses': 'e5a18bc8b36c16bda3a60eb03b2b039e16adb80447aab6e9d704c849e9299c76',
    'grammar-definitions': '2821df82d4c072206b1b7ad168999bc0323ec3f0fad0aa322719dacd030637ed',
    'grammar-directions': '8347436005ac33c74138b7764b0fd0cb9f98739026dcdecb84423d43387f358b',
    'grammar-docs': 'ce235a837b8694916d141389508fb3b008b6cfa14bba6c4b252992f07b07a6d4',
    'grammar-enum': 'e8fd14c94ff2bee103d85f22795df27628e3103af737a191b1a7b2d060c0c6ed',
    'grammar-imports': 'aeb18ed26c92650221e936308634a87e392b0190cc7d94e3cefd3c4c7c59f6d4',
    'grammar-interface-named-typed': '578ece245146eabdbcac2643b6c279fa2b15d771987c0ea924f4470146401ad5',
    'grammar-interface-no-connect': '2672a6f6ca192c9c36fef3192ac9e6895ae3365f466bf3b6bf58b0f22a222af3',
    'grammar-interface-no-connect-body': 'a642b4bcb20b448c80df3ac5b35e52a5f362b14ecf3e42e5216ab77479054dbd',
    'grammar-interface-postfix-conjugated': '9b9744487190bdb59d64d3819ea812dccd220121c6eccd1dc97d9931e88c26bb',
    'grammar-interface-prefix-conjugated': 'd01e4291af73d1a9f18e35802835302f37d5e60c105b01791a8ee8911a060052',
    'grammar-interface-typed': '139b64bc9284cd908e90f6956b8443b7f45fd2968be0f89059750859b7a76023',
    'grammar-package': '51898ec5a6a5a390958925b70b1c4e4bf14c979405e7167a13e115fb6399357c',
    'grammar-part-named-connect': 'a6b3b393ddb9d2366273738d0320dce346eeb85096829f3719099c5db194e112',
    'grammar-perform': '164508156114045bee67a544d781d392692d506334777fea5a3ea96dcbf4f32b',
    'grammar-shorthand': '41be703162e5b711e93fb306d19cc75ba52625325cd55a3be2f5482b8084bc0d',
    'grammar-specializes-after-shorthand': 'ee52a0e8be537c2e5dd8275d93b1286d2763145ea100eb267fd41c57d3bb9587',
    'grammar-usages': '2b203899a7f4c4340bde58cbcf1cfd0fd7d1c3b678cfbf5e48b63f49bc6736c0',
    'grammar-values': 'fbd7199cd505ac319e706245ae2d421ad5d6e34a7bd99374066b6d761d02a542',
    'icelab': 'eb07391dc57b1e7564a90c450e23ce77dc4d00c2c5fea1862628775ef1e22e14',
    'mega-x2': 'c0366850085fc9555a050acbada87eab849bf9d70681ebc9ecf72d29cb7fd37f',
    'stdlib': 'dd91a522a73c6feb61019e879e80947fdf2450c70ee0ddb3b8aca60692fdab02',
}


def _corpus(seed, hostile):
    return generate_scenario(seed, CorpusConfig(hostile=hostile)).sources


INPUTS = {
    "stdlib": lambda: [SCALAR_VALUES_SOURCE],
    "icelab": icelab_sources,
    "mega-x2": lambda: mega_factory_sources(2),
    **{f"corpus-{seed}-{mode}": (
        lambda seed=seed, hostile=mode == "hostile": _corpus(seed, hostile))
       for seed in range(25) for mode in ("tame", "hostile")},
    **{f"grammar-{name}": (lambda text=text: [text])
       for name, text in GRAMMAR.items()},
}


def _build(texts):
    return build_model(*(parse(text, f"<model{index}>")
                         for index, text in enumerate(texts)))


def _error(text):
    try:
        build_model(parse(text))
    except SysMLError as error:
        return type(error).__name__, error.message, str(error.location)
    return None


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_elements_match_the_pinned_signature(name):
    assert front_end_digest(_build(INPUTS[name]())) == DIGESTS[name]


@pytest.mark.parametrize("text", sorted(MALFORMED))
def test_malformed_input_raises_the_pinned_error(text):
    assert _error(text) == MALFORMED[text]
