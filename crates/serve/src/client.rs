//! A minimal blocking client for the prediction API.
//!
//! Exists for the load generator and the integration tests, and doubles as
//! executable documentation of the wire format. One client owns one
//! keep-alive connection; requests on it are strictly sequential.

use serde::Value;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// One reply from the server, with the verdict fragment kept as raw bytes
/// so callers can assert byte-identity.
#[derive(Debug, Clone)]
pub struct ClientReply {
    /// HTTP status (200, 400, 429, ...).
    pub status: u16,
    /// Full response body.
    pub body: String,
    /// The raw `"verdict"` object exactly as served (empty on errors).
    pub verdict_json: String,
    /// Decided class, when the verdict decided one.
    pub prediction: Option<u64>,
    /// Whether the ensemble was unanimous (fast path).
    pub unanimous: bool,
    /// Whether the verdict came from the degraded majority-vote fallback.
    pub degraded: bool,
    /// The XAI budget level the verdict was produced under (`"skip"`,
    /// `"light"`, `"standard"`, `"full"`; empty on errors).
    pub xai_level: String,
    /// Whether the reply was served from the verdict cache.
    pub cached: bool,
    /// Server-measured latency in microseconds.
    pub latency_us: u64,
}

/// A blocking keep-alive connection to a `remix serve` instance.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            writer,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one `/predict` request (to the server's default model group)
    /// and blocks for the reply.
    ///
    /// # Errors
    ///
    /// Returns I/O errors and malformed server replies.
    pub fn predict(
        &mut self,
        image: &[f32],
        deadline_ms: Option<u64>,
        no_cache: bool,
    ) -> io::Result<ClientReply> {
        self.predict_model(None, image, deadline_ms, no_cache)
    }

    /// Sends one `/predict` request routed to a named model group (`None`
    /// uses the server's default group) and blocks for the reply.
    ///
    /// # Examples
    ///
    /// ```
    /// use rand::{rngs::StdRng, SeedableRng};
    /// use remix_core::Remix;
    /// use remix_ensemble::TrainedEnsemble;
    /// use remix_nn::layers::{Dense, Flatten};
    /// use remix_nn::{InputSpec, Model, Sequential};
    /// use remix_serve::{Client, ServeConfig, Server};
    ///
    /// let spec = InputSpec { channels: 1, size: 2, num_classes: 3 };
    /// let mut init = StdRng::seed_from_u64(0);
    /// let mut net = Sequential::new();
    /// net.push(Flatten::new());
    /// net.push(Dense::new(4, 3, &mut init));
    /// let ensemble = TrainedEnsemble::new(vec![Model::named(net, spec, "mlp")]);
    /// let remix = Remix::builder().threads(1).build();
    /// let server = Server::start(ensemble, remix, ServeConfig::default()).unwrap();
    ///
    /// let mut client = Client::connect(server.addr()).unwrap();
    /// let reply = client
    ///     .predict_model(None, &[0.1, 0.2, 0.3, 0.4], Some(10_000), false)
    ///     .unwrap();
    /// assert_eq!(reply.status, 200);
    /// assert!(reply.unanimous); // a single-model ensemble never disagrees
    /// ```
    ///
    /// # Errors
    ///
    /// Returns I/O errors and malformed server replies.
    pub fn predict_model(
        &mut self,
        model: Option<&str>,
        image: &[f32],
        deadline_ms: Option<u64>,
        no_cache: bool,
    ) -> io::Result<ClientReply> {
        let mut body = String::with_capacity(16 + image.len() * 10);
        body.push_str("{\"image\":[");
        for (i, f) in image.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            if f.is_finite() {
                body.push_str(&f.to_string());
            } else {
                body.push_str("null");
            }
        }
        body.push(']');
        if let Some(ms) = deadline_ms {
            body.push_str(&format!(",\"deadline_ms\":{ms}"));
        }
        if no_cache {
            body.push_str(",\"no_cache\":true");
        }
        if let Some(name) = model {
            body.push_str(&format!(",\"model\":{}", json_quote(name)));
        }
        body.push('}');
        self.roundtrip("POST", "/predict", &body)
    }

    /// Fetches `GET /models` (the served groups with versions, hashes, and
    /// traffic counters) as a parsed JSON object.
    ///
    /// # Examples
    ///
    /// ```
    /// use rand::{rngs::StdRng, SeedableRng};
    /// use remix_core::Remix;
    /// use remix_ensemble::TrainedEnsemble;
    /// use remix_nn::layers::{Dense, Flatten};
    /// use remix_nn::{InputSpec, Model, Sequential};
    /// use remix_serve::{Client, ServeConfig, Server};
    ///
    /// let spec = InputSpec { channels: 1, size: 2, num_classes: 3 };
    /// let mut init = StdRng::seed_from_u64(0);
    /// let mut net = Sequential::new();
    /// net.push(Flatten::new());
    /// net.push(Dense::new(4, 3, &mut init));
    /// let ensemble = TrainedEnsemble::new(vec![Model::named(net, spec, "mlp")]);
    /// let remix = Remix::builder().threads(1).build();
    /// let server = Server::start(ensemble, remix, ServeConfig::default()).unwrap();
    ///
    /// let mut client = Client::connect(server.addr()).unwrap();
    /// let models = client.models().unwrap();
    /// let groups = models
    ///     .as_object()
    ///     .and_then(|pairs| pairs.iter().find(|(key, _)| key == "models"))
    ///     .and_then(|(_, value)| value.as_array())
    ///     .expect("a JSON object with a `models` array");
    /// assert_eq!(groups.len(), 1); // one hosted group per `--model` (or `--ensemble`)
    /// ```
    ///
    /// # Errors
    ///
    /// Returns I/O errors and malformed server replies.
    pub fn models(&mut self) -> io::Result<Value> {
        self.get_json("/models")
    }

    /// Requests a hot-swap of the named model group to `version` (`None`
    /// means the registry's latest) and blocks until the swap completes.
    /// The reply body carries the swap report (`from`, `to`, `hash`,
    /// `prepare_us`, `flip_us`) on success, or an error object.
    ///
    /// # Examples
    ///
    /// ```
    /// use rand::{rngs::StdRng, SeedableRng};
    /// use remix_core::Remix;
    /// use remix_ensemble::TrainedEnsemble;
    /// use remix_nn::layers::{Dense, Flatten};
    /// use remix_nn::{InputSpec, Model, Sequential};
    /// use remix_registry::{EnsembleArtifact, Registry};
    /// use remix_serve::{Client, NamedModel, ServeConfig, Server};
    /// use remix_xai::XaiBudget;
    ///
    /// // Publish two versions of a one-model ensemble to a throwaway
    /// // registry, keeping the v1 ensemble to serve from (a swap applies
    /// // the incoming version's states onto the running structure).
    /// let spec = InputSpec { channels: 1, size: 2, num_classes: 3 };
    /// let root = std::env::temp_dir().join(format!("remix_doc_swap_{}", std::process::id()));
    /// let registry = Registry::open(&root);
    /// let mut serving = None;
    /// for (seed, version) in [(0, "1.0.0"), (1, "2.0.0")] {
    ///     let mut init = StdRng::seed_from_u64(seed);
    ///     let mut net = Sequential::new();
    ///     net.push(Flatten::new());
    ///     net.push(Dense::new(4, 3, &mut init));
    ///     let mut ensemble = TrainedEnsemble::new(vec![Model::named(net, spec, "mlp")]);
    ///     let artifact = EnsembleArtifact::capture(
    ///         "demo", version, spec, &mut ensemble,
    ///         vec!["mlp".into()], vec![1.0], XaiBudget::default(),
    ///     );
    ///     registry.publish(&artifact).unwrap();
    ///     if seed == 0 {
    ///         serving = Some(ensemble);
    ///     }
    /// }
    ///
    /// // Serve v1, then swap the live group to v2 over the API.
    /// let entry = registry.resolve("demo", Some("1.0.0")).unwrap();
    /// let named = NamedModel {
    ///     name: "demo".to_string(),
    ///     version: entry.version.to_string(),
    ///     hash: entry.hash,
    ///     ensemble: serving.unwrap(),
    /// };
    /// let remix = Remix::builder().threads(1).build();
    /// let server =
    ///     Server::start_models(vec![named], Some(registry), remix, ServeConfig::default())
    ///         .unwrap();
    /// let mut client = Client::connect(server.addr()).unwrap();
    /// let reply = client.swap("demo", Some("2.0.0")).unwrap();
    /// assert_eq!(reply.status, 200);
    /// assert!(reply.body.contains("\"to\":\"2.0.0\""));
    /// # drop(client);
    /// # drop(server);
    /// # std::fs::remove_dir_all(&root).unwrap();
    /// ```
    ///
    /// # Errors
    ///
    /// Returns I/O errors and malformed server replies (a rejected swap is
    /// an `Ok` reply with a non-200 status, not an error).
    pub fn swap(&mut self, model: &str, version: Option<&str>) -> io::Result<ClientReply> {
        let body = match version {
            Some(version) => format!("{{\"version\":{}}}", json_quote(version)),
            None => "{}".to_string(),
        };
        self.roundtrip("POST", &format!("/models/{model}/swap"), &body)
    }

    /// Fetches `/stats` as a parsed JSON object.
    ///
    /// # Errors
    ///
    /// Returns I/O errors and malformed server replies.
    pub fn stats(&mut self) -> io::Result<Value> {
        self.get_json("/stats")
    }

    /// Fetches `GET /drift`, parsed: the detector's enabled/action state
    /// plus per-model alert counts, latched trip state, last-trip metadata,
    /// and the drift-triggered swap outcome.
    ///
    /// # Errors
    ///
    /// Returns I/O errors and malformed server replies.
    pub fn drift(&mut self) -> io::Result<Value> {
        self.get_json("/drift")
    }

    fn get_json(&mut self, path: &str) -> io::Result<Value> {
        let reply = self.roundtrip("GET", path, "")?;
        serde_json::from_str(&reply.body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))
    }

    fn roundtrip(&mut self, method: &str, path: &str, body: &str) -> io::Result<ClientReply> {
        write!(
            self.writer,
            "{method} {path} HTTP/1.1\r\nHost: remix\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )?;
        self.writer.flush()?;
        read_reply(&mut self.reader)
    }
}

/// Reads one HTTP response and extracts the reply fields.
fn read_reply(reader: &mut impl BufRead) -> io::Result<ClientReply> {
    let status_line = read_line(reader)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| malformed("bad status line"))?;
    let mut content_length = 0usize;
    loop {
        let line = read_line(reader)?;
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| malformed("bad content-length"))?;
            }
        }
    }
    let mut raw = vec![0u8; content_length];
    reader.read_exact(&mut raw)?;
    let body = String::from_utf8(raw).map_err(|_| malformed("non-utf8 body"))?;
    let mut reply = ClientReply {
        status,
        verdict_json: String::new(),
        prediction: None,
        unanimous: false,
        degraded: false,
        xai_level: String::new(),
        cached: false,
        latency_us: 0,
        body,
    };
    if status != 200 || !reply.body.starts_with("{\"verdict\":") {
        return Ok(reply);
    }
    // The envelope is `{"verdict":<fragment>,"cached":...}` with the
    // fragment serialized verbatim; slice it back out so byte-level
    // comparisons see exactly what the server rendered.
    let start = "{\"verdict\":".len();
    let end = reply
        .body
        .rfind(",\"cached\":")
        .ok_or_else(|| malformed("no cached field"))?;
    reply.verdict_json = reply.body[start..end].to_string();
    let value: Value =
        serde_json::from_str(&reply.body).map_err(|e| malformed(&format!("{e:?}")))?;
    let pairs = value
        .as_object()
        .ok_or_else(|| malformed("not an object"))?;
    if let Some(Value::Bool(b)) = field(pairs, "cached") {
        reply.cached = *b;
    }
    if let Some(Value::UInt(us)) = field(pairs, "latency_us") {
        reply.latency_us = *us;
    }
    let verdict = field(pairs, "verdict")
        .and_then(Value::as_object)
        .ok_or_else(|| malformed("no verdict object"))?;
    if let Some(Value::UInt(class)) = field(verdict, "prediction") {
        reply.prediction = Some(*class);
    }
    if let Some(Value::Bool(b)) = field(verdict, "unanimous") {
        reply.unanimous = *b;
    }
    if let Some(Value::Bool(b)) = field(verdict, "degraded") {
        reply.degraded = *b;
    }
    if let Some(Value::Str(level)) = field(verdict, "xai_level") {
        reply.xai_level = level.clone();
    }
    Ok(reply)
}

fn field<'a>(pairs: &'a [(String, Value)], name: &str) -> Option<&'a Value> {
    pairs.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

/// Minimal JSON string quoting for names/versions sent by this client.
fn json_quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn read_line(reader: &mut impl BufRead) -> io::Result<String> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(malformed("unexpected eof"));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

fn malformed(reason: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, reason.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_reply_and_recovers_the_raw_fragment() {
        let fragment = r#"{"prediction":2,"decided":true,"unanimous":false,"degraded":false,"xai_level":"standard","details":[{"name":"m","pred":2,"confidence":0.75,"diversity":0.5,"sparseness":0.25,"weight":0.09375}]}"#;
        let body = format!("{{\"verdict\":{fragment},\"cached\":true,\"latency_us\":42}}");
        let wire = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let reply = read_reply(&mut BufReader::new(wire.as_bytes())).unwrap();
        assert_eq!(reply.status, 200);
        assert_eq!(reply.verdict_json, fragment);
        assert_eq!(reply.prediction, Some(2));
        assert!(reply.cached);
        assert!(!reply.degraded);
        assert_eq!(reply.xai_level, "standard");
        assert_eq!(reply.latency_us, 42);
    }

    #[test]
    fn error_replies_surface_status_and_body() {
        let wire = "HTTP/1.1 429 Too Many Requests\r\nContent-Length: 22\r\n\r\n{\"error\":\"overloaded\"}";
        let reply = read_reply(&mut BufReader::new(wire.as_bytes())).unwrap();
        assert_eq!(reply.status, 429);
        assert!(reply.body.contains("overloaded"));
        assert!(reply.verdict_json.is_empty());
    }
}
