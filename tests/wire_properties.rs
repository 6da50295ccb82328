//! Property-based tests of the NDJSON frame codec both the serving
//! layer and the fleet protocol ride on: arbitrary frames survive
//! write → chunked/torn read byte-for-byte, oversized lines are
//! rejected and drained without desynchronising the stream, and a
//! reply scanner (the coordinator's stale-frame skip) finds its reply
//! under duplicated ids and out-of-order delivery.
//!
//! The second half pins the request codec on top of that framing. The
//! tree-free frame decoder (`protocol::decode_frame`) must answer every
//! frame exactly like the reference decode `Request::from_json` on
//! `reds_json::from_str`: same request with bitwise-equal points, or
//! same error code, message and echoed id. The client's directly
//! written `predict_batch` frames must be byte-identical to
//! `to_json().to_string_compact()`.

use std::io::{BufRead, Cursor, Read};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reds::data::Dataset;
use reds::metamodel::{RandomForest, RandomForestParams, SavedModel};
use reds_json::Json;
use reds_serve::protocol::{decode_frame, error_response, small_uint, write_predict_batch};
use reds_serve::wire::{
    drain_oversized_line, read_frame, write_frame, Frame, FrameBuffer, FrameEvent, Wait, WaitPolicy,
};
use reds_serve::{
    Algorithm, Client, DiscoverParams, ModelArtifact, Request, ServeError, ServeLimits, Service,
    StreamDiscoverParams,
};

const MAX: usize = 1 << 16;

fn never_block() -> impl WaitPolicy {
    || -> Wait { panic!("in-memory reads never block") }
}

/// A reader that serves its bytes in a fixed schedule of chunk sizes,
/// so `fill_buf` boundaries land at arbitrary points inside frames —
/// the user-space analogue of TCP segmentation.
struct Chopped {
    data: Vec<u8>,
    at: usize,
    chunks: Vec<usize>,
    chunk_i: usize,
}

impl Read for Chopped {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.at >= self.data.len() {
            return Ok(0);
        }
        let want = self
            .chunks
            .get(self.chunk_i)
            .copied()
            .unwrap_or(usize::MAX)
            .clamp(1, out.len())
            .min(self.data.len() - self.at);
        self.chunk_i += 1;
        out[..want].copy_from_slice(&self.data[self.at..self.at + want]);
        self.at += want;
        Ok(want)
    }
}

impl BufRead for Chopped {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.at >= self.data.len() {
            return Ok(&[]);
        }
        let want = self
            .chunks
            .get(self.chunk_i)
            .copied()
            .unwrap_or(usize::MAX)
            .clamp(1, self.data.len() - self.at);
        Ok(&self.data[self.at..self.at + want])
    }

    fn consume(&mut self, n: usize) {
        self.at += n;
        if n > 0 {
            self.chunk_i += 1;
        }
    }
}

fn arb_doc() -> impl Strategy<Value = Json> {
    (
        0u64..1_000_000,
        prop::collection::vec(0u32..26, 0..24).prop_map(|cs| {
            cs.into_iter()
                .map(|c| (b'a' + c as u8) as char)
                .collect::<String>()
        }),
        prop::collection::vec(-1e6f64..1e6, 0..6),
    )
        .prop_map(|(id, s, xs)| {
            Json::obj([
                ("id", Json::num(id as f64)),
                ("payload", Json::str(s)),
                ("xs", Json::arr(xs.into_iter().map(Json::num))),
            ])
        })
}

proptest! {
    /// write_frame → read_frame is the identity on frame sequences, no
    /// matter how the bytes are chunked on the way back in.
    #[test]
    fn frames_round_trip_under_arbitrary_chunking(
        docs in prop::collection::vec(arb_doc(), 1..8),
        chunks in prop::collection::vec(1usize..40, 0..64),
    ) {
        let mut bytes = Vec::new();
        for doc in &docs {
            write_frame(&mut bytes, doc).expect("write");
        }
        let mut reader = Chopped { data: bytes, at: 0, chunks, chunk_i: 0 };
        for doc in &docs {
            match read_frame(&mut reader, MAX, &mut never_block()).expect("read") {
                Frame::Line(line) => {
                    let text = String::from_utf8(line).expect("utf8");
                    let back = reds_json::from_str(&text).expect("parse");
                    prop_assert_eq!(back.to_string_compact(), doc.to_string_compact());
                }
                other => prop_assert!(false, "expected a line, got {:?}", other),
            }
        }
        prop_assert!(matches!(
            read_frame(&mut reader, MAX, &mut never_block()).expect("eof"),
            Frame::Eof
        ));
    }

    /// A stream cut mid-frame (torn write) yields the partial bytes as
    /// a Line — the protocol layer rejects it as malformed JSON — and
    /// never hangs, panics, or invents trailing frames.
    #[test]
    fn torn_final_frames_surface_as_rejectable_lines(
        doc in arb_doc(),
        cut in 1usize..200,
        chunks in prop::collection::vec(1usize..16, 0..32),
    ) {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &doc).expect("write");
        // Always lose at least the closing brace and the newline, so
        // the remaining prefix can never be a complete document.
        let cut = cut.min(bytes.len() - 2).max(1);
        bytes.truncate(cut);
        let mut reader = Chopped { data: bytes.clone(), at: 0, chunks, chunk_i: 0 };
        match read_frame(&mut reader, MAX, &mut never_block()).expect("read") {
            Frame::Line(line) => {
                prop_assert_eq!(&line[..], &bytes[..]);
                // A torn JSON document must not parse as a complete one
                // unless the cut happened to keep it whole — it cannot,
                // because the full serialization is strictly longer.
                prop_assert!(reds_json::from_str(&String::from_utf8_lossy(&line)).is_err());
            }
            Frame::Eof => prop_assert_eq!(cut, 0),
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }

    /// An oversized line is rejected, drained, and the next frame reads
    /// intact: one bad peer message cannot desynchronise the stream.
    #[test]
    fn oversized_lines_drain_without_desync(
        filler in 1usize..4096,
        doc in arb_doc(),
    ) {
        let cap = 256usize;
        let mut bytes = vec![b'x'; cap + filler];
        bytes.push(b'\n');
        write_frame(&mut bytes, &doc).expect("write");
        let mut reader = Cursor::new(bytes);
        prop_assert!(matches!(
            read_frame(&mut reader, cap, &mut never_block()).expect("read"),
            Frame::TooLarge
        ));
        drain_oversized_line(&mut reader, 1 << 20).expect("drain");
        match read_frame(&mut reader, MAX, &mut never_block()).expect("next") {
            Frame::Line(line) => {
                let back = reds_json::from_str(&String::from_utf8_lossy(&line)).expect("parse");
                prop_assert_eq!(back.to_string_compact(), doc.to_string_compact());
            }
            other => prop_assert!(false, "stream desynchronised: {:?}", other),
        }
    }

    /// The reply-matching loop the fleet coordinator uses — skip frames
    /// whose id differs — finds the wanted reply under duplicated ids
    /// and out-of-order delivery, exactly once.
    #[test]
    fn reply_scan_survives_duplicates_and_reordering(
        mut ids in prop::collection::vec(0u64..6, 1..12),
        dup_at in 0usize..12,
        swap in (0usize..12, 0usize..12),
        want in 0u64..6,
    ) {
        // Ensure the wanted reply exists, then duplicate and reorder.
        ids.push(want);
        let dup = ids[dup_at % ids.len()];
        ids.push(dup);
        let (a, b) = swap;
        let (a, b) = (a % ids.len(), b % ids.len());
        ids.swap(a, b);

        let mut bytes = Vec::new();
        for (pos, id) in ids.iter().enumerate() {
            let doc = Json::obj([
                ("id", Json::num(*id as f64)),
                ("pos", Json::num(pos as f64)),
            ]);
            write_frame(&mut bytes, &doc).expect("write");
        }
        let mut reader = Cursor::new(bytes);
        let first_pos = ids.iter().position(|&i| i == want).expect("present");
        loop {
            match read_frame(&mut reader, MAX, &mut never_block()).expect("read") {
                Frame::Line(line) => {
                    let doc = reds_json::from_str(&String::from_utf8_lossy(&line)).expect("parse");
                    let id = doc.get("id").and_then(Json::as_f64).expect("id") as u64;
                    if id != want {
                        continue; // the stale-frame skip under test
                    }
                    let pos = doc.get("pos").and_then(Json::as_f64).expect("pos") as usize;
                    prop_assert_eq!(pos, first_pos, "must take the earliest matching reply");
                    break;
                }
                other => {
                    prop_assert!(false, "reply never found: {:?}", other);
                }
            }
        }
    }

    /// The reactor's push decoder and the blocking pull decoder are
    /// the same codec: fed identical bytes under arbitrary chunking
    /// (TCP segmentation), they emit identical frame sequences —
    /// including a torn trailing line at EOF.
    #[test]
    fn push_decoder_matches_pull_decoder_under_any_chunking(
        docs in prop::collection::vec(arb_doc(), 1..8),
        tail in prop::collection::vec(0u32..26, 0..12),
        chunks in prop::collection::vec(1usize..40, 0..64),
    ) {
        let mut bytes = Vec::new();
        for doc in &docs {
            write_frame(&mut bytes, doc).expect("write");
        }
        // A torn trailing line (no newline before EOF).
        bytes.extend(tail.iter().map(|c| b'a' + *c as u8));

        // Pull side: the blocking reader the client uses.
        let mut pull_lines = Vec::new();
        let mut reader = Cursor::new(bytes.clone());
        loop {
            match read_frame(&mut reader, MAX, &mut never_block()).expect("read") {
                Frame::Line(line) => pull_lines.push(line),
                Frame::Eof => break,
                other => prop_assert!(false, "unexpected {:?}", other),
            }
        }

        // Push side: the reactor's incremental decoder, fed the same
        // bytes in arbitrary chunks.
        let mut fb = FrameBuffer::new(MAX);
        let mut push_lines = Vec::new();
        let (mut at, mut chunk_i) = (0usize, 0usize);
        while at < bytes.len() {
            let take = chunks
                .get(chunk_i)
                .copied()
                .unwrap_or(usize::MAX)
                .clamp(1, bytes.len() - at);
            chunk_i += 1;
            let mut chunk = &bytes[at..at + take];
            at += take;
            while !chunk.is_empty() {
                let (used, event) = fb.push(chunk);
                prop_assert!(used > 0, "push must always make progress");
                chunk = &chunk[used..];
                match event {
                    Some(FrameEvent::Frame(line)) => push_lines.push(line),
                    Some(other) => prop_assert!(false, "unexpected event {:?}", other),
                    None => {}
                }
            }
        }
        if let Some(torn) = fb.take_trailing() {
            push_lines.push(torn);
        }
        prop_assert_eq!(push_lines, pull_lines);
    }

    /// The push decoder rejects an oversized line exactly once, drains
    /// it, and decodes the next frame intact — the same
    /// reject-drain-resync contract as read_frame + drain_oversized_line,
    /// under any chunking.
    #[test]
    fn push_decoder_rejects_and_resyncs_like_the_pull_decoder(
        filler in 1usize..2048,
        doc in arb_doc(),
        chunks in prop::collection::vec(1usize..32, 0..48),
    ) {
        let cap = 256usize;
        let mut bytes = vec![b'x'; cap + filler];
        bytes.push(b'\n');
        write_frame(&mut bytes, &doc).expect("write");

        let mut fb = FrameBuffer::new(cap);
        let mut events: Vec<&str> = Vec::new();
        let mut lines = Vec::new();
        let (mut at, mut chunk_i) = (0usize, 0usize);
        while at < bytes.len() {
            let take = chunks
                .get(chunk_i)
                .copied()
                .unwrap_or(usize::MAX)
                .clamp(1, bytes.len() - at);
            chunk_i += 1;
            let mut chunk = &bytes[at..at + take];
            at += take;
            while !chunk.is_empty() {
                let (used, event) = fb.push(chunk);
                chunk = &chunk[used..];
                match event {
                    Some(FrameEvent::Frame(line)) => {
                        events.push("frame");
                        lines.push(line);
                    }
                    Some(FrameEvent::TooLarge) => events.push("too_large"),
                    Some(FrameEvent::DrainEnd) => events.push("drain_end"),
                    None => prop_assert!(used > 0, "push must always make progress"),
                }
            }
        }
        prop_assert_eq!(events, vec!["too_large", "drain_end", "frame"]);
        prop_assert!(!fb.discarding(), "decoder must resync after the bad line");
        prop_assert!(fb.take_trailing().is_none());
        let back = reds_json::from_str(&String::from_utf8_lossy(&lines[0])).expect("parse");
        prop_assert_eq!(back.to_string_compact(), doc.to_string_compact());
    }
}

/// The decode the server ran before the tree-free decoder: parse the
/// whole frame into a tree, take the id for error correlation, then
/// `Request::from_json`.
fn reference_decode(line: &str) -> Result<Request, (u64, ServeError)> {
    let doc = reds_json::from_str(line).map_err(|e| (0, ServeError::parse(e.to_string())))?;
    let id = doc.get("id").and_then(small_uint).unwrap_or(0);
    Request::from_json(&doc).map_err(|e| (id, e))
}

/// Request equality with `predict_batch` points compared bitwise (NaN
/// included).
fn same_request(a: &Request, b: &Request) -> bool {
    match (a, b) {
        (
            Request::PredictBatch {
                id,
                points,
                m,
                model,
            },
            Request::PredictBatch {
                id: id_b,
                points: points_b,
                m: m_b,
                model: model_b,
            },
        ) => {
            id == id_b
                && m == m_b
                && model == model_b
                && points.len() == points_b.len()
                && points
                    .iter()
                    .zip(points_b)
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        }
        _ => a == b,
    }
}

/// Asserts that the tree-free decoder agrees with the reference decode
/// on `line`, and returns the reference outcome.
fn assert_decoders_agree(line: &str) -> Result<Request, (u64, ServeError)> {
    let expected = reference_decode(line);
    let got = decode_frame(line);
    match (&expected, &got) {
        (Ok(a), Ok(b)) => assert!(same_request(a, b), "{line:?}\n{a:?}\n{b:?}"),
        (Err(a), Err(b)) => assert_eq!(a, b, "{line:?}"),
        _ => panic!("decoders disagree on {line:?}:\nreference {expected:?}\ndecode_frame {got:?}"),
    }
    expected
}

fn small_artifact() -> ModelArtifact {
    let mut rng = StdRng::seed_from_u64(5);
    let train = Dataset::from_fn((0..60 * 2).map(|_| rng.gen::<f64>()).collect(), 2, |x| {
        f64::from(u8::from(x[0] > 0.5 && x[1] > 0.5))
    })
    .unwrap();
    let params = RandomForestParams {
        n_trees: 4,
        ..Default::default()
    };
    let model = RandomForest::fit(&train, &params, &mut rng);
    ModelArtifact {
        function: "corner".to_string(),
        seed: 5,
        pool_seed: 6,
        pool_design: reds_serve::POOL_DESIGN_UNIFORM.to_string(),
        model: SavedModel::Forest(model).into(),
        train,
    }
}

/// A `predict_batch` frame over a 2-column model, with a marker.
const PREDICT_FRAME: &str =
    r#"{"id":17,"cmd":"predict_batch","m":2,"points":[0.25,-1.5e-3,"inf",0.75],"model":"default"}"#;
/// A `discover` frame small enough to run thousands of times.
const DISCOVER_FRAME: &str =
    r#"{"id":18,"cmd":"discover","l":40,"seed":"7","algorithm":"prim","bnd":0.5}"#;

/// Valid frames for every command plus every malformed shape the
/// protocol tests name, and the hostile shapes the tree-free decoder
/// handles on its own: points nested past the depth limit, duplicate
/// `points` keys, bad elements followed by syntax errors, non-object
/// documents.
fn frame_corpus() -> Vec<String> {
    let requests = [
        Request::PredictBatch {
            id: 7,
            points: vec![0.25, 0.5, 0.75, 1.0],
            m: 2,
            model: None,
        },
        Request::PredictBatch {
            id: 13,
            points: vec![
                f64::INFINITY,
                f64::NAN,
                f64::NEG_INFINITY,
                -0.0,
                5e-324,
                1e-300,
            ],
            m: 3,
            model: Some("cham\"pi\\on\u{1}\u{1F600}".to_string()),
        },
        Request::PredictBatch {
            id: 0,
            points: vec![],
            m: 2,
            model: None,
        },
        Request::Discover {
            id: 8,
            params: DiscoverParams {
                l: 5_000,
                seed: u64::MAX - 1,
                algorithm: Algorithm::BestInterval,
                bnd: 0.25,
            },
            model: Some("challenger".to_string()),
        },
        Request::DiscoverStreaming {
            id: 11,
            params: StreamDiscoverParams {
                l: 2_000_000,
                seed: Some(u64::MAX - 2),
                algorithm: Algorithm::Prim,
                bnd: 0.5,
                chunk_rows: 65_536,
                ooc: true,
            },
            model: None,
        },
        Request::DiscoverStreaming {
            id: 12,
            params: StreamDiscoverParams::default(),
            model: None,
        },
        Request::Swap {
            id: 14,
            model: Some("champion".to_string()),
            path: "/nonexistent/next.redsart".to_string(),
        },
        Request::Info { id: 9 },
        Request::Shutdown { id: 10 },
    ];
    let mut corpus: Vec<String> = requests
        .iter()
        .flat_map(|r| {
            [
                r.to_json().to_string_compact(),
                r.to_json().to_string_pretty(),
            ]
        })
        .collect();
    let deep = |n: usize| format!("{}0.5{}", "[".repeat(n), "]".repeat(n));
    corpus.extend(
        [
            // The malformed cases of the protocol unit tests.
            r#"{"cmd":"predict_batch"}"#,
            r#"{"cmd":"predict_batch","m":2,"points":"zzz"}"#,
            r#"{"cmd":"predict_batch","m":2,"points":[1,null]}"#,
            r#"{"cmd":"nope"}"#,
            r#"{"id":-4,"cmd":"info"}"#,
            r#"{"points":[1]}"#,
            r#"{"cmd":"discover","seed":1.5}"#,
            r#"{"cmd":"discover","seed":9007199254740994}"#,
            r#"{"cmd":"discover","seed":1e300}"#,
            r#"{"cmd":"discover","bnd":"x"}"#,
            r#"{"cmd":"discover_streaming","ooc":1}"#,
            r#"{"cmd":"predict_batch","m":2,"points":[],"model":7}"#,
            r#"{"cmd":"discover","model":""}"#,
            r#"{"cmd":"swap"}"#,
            r#"{"cmd":"swap","path":""}"#,
            r#"{"cmd":"discover","algorithm":"xgboost"}"#,
            r#"{"cmd":"discover_streaming","l":100,"chunk_rows":0}"#,
            // Points the tree-free path must treat exactly like the tree.
            r#"{"cmd":"predict_batch","m":2,"points":[0.5,"nan"]}"#,
            r#"{"id":3,"cmd":"predict_batch","m":1,"points":["x"]}"#,
            r#"{"id":3,"cmd":"predict_batch","m":1,"points":[true]}"#,
            r#"{"id":3,"cmd":"predict_batch","m":1,"points":[[1]]}"#,
            r#"{"id":3,"cmd":"predict_batch","m":1,"points":[{"a":1}]}"#,
            r#"{"id":3,"cmd":"predict_batch","points":[1,"x"]}"#,
            r#"{"id":3,"cmd":"predict_batch","m":1,"points":[1,"x"],"model":""}"#,
            r#"{"id":3,"cmd":"predict_batch","m":1,"points":{"0":1}}"#,
            r#"{"id":3,"cmd":"predict_batch","m":1,"points":null}"#,
            r#"{"id":3,"cmd":"info","points":[null,"x"]}"#,
            r#"{"id":3,"cmd":"discover","l":100,"points":[1,[2]]}"#,
            // A syntax error after a bad element beats the bad element.
            r#"{"id":3,"cmd":"predict_batch","m":1,"points":[null,1 2]}"#,
            r#"{"id":3,"cmd":"predict_batch","m":1,"points":["x",01]}"#,
            r#"{"id":3,"cmd":"predict_batch","m":1,"points":["x"]} trailing"#,
            r#"{"id":3,"cmd":"predict_batch","m":1,"points":[1,],"model":"a"}"#,
            // Duplicate keys: the first wins on both paths.
            r#"{"id":3,"cmd":"predict_batch","m":1,"points":[1],"points":[2,3]}"#,
            r#"{"id":3,"cmd":"predict_batch","m":1,"points":["x"],"points":[2]}"#,
            r#"{"id":3,"cmd":"predict_batch","m":1,"points":null,"points":[2]}"#,
            r#"{"id":3,"cmd":"predict_batch","m":1,"points":[2],"points":[1,"#,
            r#"{"id":3,"id":4,"cmd":"info","cmd":"nope"}"#,
            // Not an object at all.
            r#"[{"cmd":"info"}]"#,
            r#""info""#,
            "42",
            "null",
            "",
            "   ",
            "{",
            "{}",
            "\u{FEFF}{}",
        ]
        .map(String::from),
    );
    // Points nested up to and past the depth limit (the array sits at
    // depth 1, its elements at depth 2).
    for n in [
        1,
        reds_json::MAX_DEPTH - 3,
        reds_json::MAX_DEPTH - 2,
        10_000,
    ] {
        corpus.push(format!(
            r#"{{"id":5,"cmd":"predict_batch","m":1,"points":[1,{}]}}"#,
            deep(n)
        ));
        corpus.push(format!(r#"{{"id":5,"cmd":"info","points":[{}]}}"#, deep(n)));
    }
    corpus
}

/// Every truncation and every single-byte XOR (all 255 masks) of a
/// frame, decoded the way the reactor hands bytes to the handler.
fn mutations(frame: &str) -> Vec<String> {
    let bytes = frame.as_bytes();
    let mut out: Vec<String> = (0..bytes.len())
        .map(|n| String::from_utf8_lossy(&bytes[..n]).into_owned())
        .collect();
    for at in 0..bytes.len() {
        for mask in 1..=255u8 {
            let mut mutated = bytes.to_vec();
            mutated[at] ^= mask;
            out.push(String::from_utf8_lossy(&mutated).into_owned());
        }
    }
    out
}

#[test]
fn tree_free_decoder_matches_the_reference_on_the_corpus() {
    let mut accepted = 0;
    for line in frame_corpus() {
        accepted += usize::from(assert_decoders_agree(&line).is_ok());
    }
    assert!(
        accepted >= 18,
        "the corpus must hold valid frames: {accepted}"
    );
}

#[test]
fn tree_free_decoder_matches_the_reference_under_every_byte_mutation() {
    for frame in [PREDICT_FRAME, DISCOVER_FRAME] {
        let (mut ok, mut failed) = (0, 0);
        for line in mutations(frame) {
            match assert_decoders_agree(&line) {
                Ok(_) => ok += 1,
                Err(_) => failed += 1,
            }
        }
        // Both outcomes are exercised: mutated digits still decode,
        // broken syntax does not.
        assert!(
            ok > 100 && failed > 1_000,
            "{frame}: {ok} ok, {failed} failed"
        );
    }
}

#[test]
fn handle_frame_answers_every_hostile_frame_without_panicking() {
    let service = Service::new(
        small_artifact(),
        ServeLimits {
            max_discover_l: 100,
            ..ServeLimits::default()
        },
    );
    let mut frames = frame_corpus();
    frames.extend(mutations(PREDICT_FRAME));
    frames.extend(mutations(DISCOVER_FRAME));
    for line in frames {
        let reference = reference_decode(&line);
        let (reply, _) =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| service.handle_frame(&line)))
                .unwrap_or_else(|_| panic!("handle_frame panicked on {line:?}"));
        match reference {
            // A frame that does not decode is answered with exactly the
            // error the reference decode names, under its id.
            Err((id, e)) => assert_eq!(reply, error_response(id, &e), "{line:?}"),
            Ok(request) => {
                assert_eq!(
                    reply.get("id").and_then(Json::as_f64),
                    Some(request.id() as f64),
                    "{line:?}"
                );
                assert!(
                    reply.get("ok").and_then(Json::as_bool).is_some(),
                    "{line:?}"
                );
            }
        }
    }
}

/// Coordinates the writer must carry exactly: markers for the
/// non-finite values, signed zero, subnormals, extreme magnitudes and
/// the integer-precision boundary, plus arbitrary bit patterns.
fn arb_point() -> impl Strategy<Value = f64> {
    let two53 = (1u64 << 53) as f64;
    prop_oneof![
        2 => (0usize..12).prop_map(move |i| [
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -0.0,
            0.0,
            5e-324,
            1e-300,
            -1e-300,
            two53 - 1.0,
            two53 + 1.0,
            f64::MAX,
            f64::MIN_POSITIVE,
        ][i]),
        3 => (0u64..u64::MAX).prop_map(f64::from_bits),
        3 => -1e6f64..1e6,
    ]
}

/// Model names with quotes, backslashes, control and non-BMP characters.
fn arb_model() -> impl Strategy<Value = Option<String>> {
    const CHARS: [char; 10] = [
        'a',
        'Z',
        '"',
        '\\',
        '\n',
        '\u{1}',
        '\u{1f}',
        '\u{7f}',
        'é',
        '\u{1F600}',
    ];
    prop_oneof![
        1 => Just(None),
        3 => prop::collection::vec(0usize..CHARS.len(), 1..12)
            .prop_map(|cs| Some(cs.into_iter().map(|c| CHARS[c]).collect())),
    ]
}

proptest! {
    /// The client's directly written `predict_batch` frame is the exact
    /// byte string of the tree serialization, and decodes back to the
    /// same request on both decoders.
    #[test]
    fn client_frames_equal_the_tree_serialization(
        id in 0u64..u64::MAX,
        small_id in 0u64..1_000_000,
        m in 0usize..64,
        points in prop::collection::vec(arb_point(), 0..40),
        model in arb_model(),
    ) {
        for id in [id, small_id] {
            let request = Request::PredictBatch {
                id,
                points: points.clone(),
                m,
                model: model.clone(),
            };
            let expected = request.to_json().to_string_compact();
            let mut direct = String::new();
            write_predict_batch(&mut direct, id, &points, m, model.as_deref());
            prop_assert_eq!(&direct, &expected);
            if id <= u32::MAX as u64 {
                let back = assert_decoders_agree(&direct).expect("decodes");
                prop_assert!(same_request(&back, &request), "{:?}", back);
            }
        }
    }
}

#[test]
fn the_client_sends_exactly_the_tree_serialization_over_the_socket() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("binds");
    let addr = listener.local_addr().unwrap();
    // A stand-in server that records every frame and answers each with
    // an empty prediction list under the frame's id.
    let recorder = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accepts");
        let mut writer = stream.try_clone().unwrap();
        let mut lines = Vec::new();
        for line in std::io::BufReader::new(stream).lines() {
            let line = line.expect("reads");
            let id = reds_json::from_str(&line)
                .unwrap()
                .get("id")
                .cloned()
                .unwrap();
            let reply = format!(
                "{{\"id\":{id},\"ok\":true,\"result\":{{\"predictions\":[],\"version\":1}}}}\n"
            );
            std::io::Write::write_all(&mut writer, reply.as_bytes()).unwrap();
            lines.push(line);
        }
        lines
    });
    let two53 = (1u64 << 53) as f64;
    let batches: Vec<(Option<&str>, Vec<f64>)> = vec![
        (
            None,
            vec![0.25, -0.0, 5e-324, 1e-300, two53 - 1.0, two53 + 1.0],
        ),
        (
            Some("q\"uo\\te\u{2}\u{1F600}"),
            vec![f64::INFINITY, f64::NAN, f64::NEG_INFINITY],
        ),
        (Some("plain"), vec![]),
    ];
    let mut client = Client::connect(addr).expect("connects");
    for (model, points) in &batches {
        client
            .predict_batch_on(*model, points, 3)
            .expect("answered");
    }
    drop(client);
    let lines = recorder.join().expect("recorder");
    assert_eq!(lines.len(), batches.len());
    for (i, ((model, points), line)) in batches.iter().zip(&lines).enumerate() {
        let expected = Request::PredictBatch {
            id: i as u64 + 1,
            points: points.clone(),
            m: 3,
            model: model.map(str::to_string),
        };
        assert_eq!(line, &expected.to_json().to_string_compact());
    }
}
