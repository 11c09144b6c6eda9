/**
 * @file
 * Minimal streaming JSON writer shared by the observability sinks and
 * the stats serializers, plus a small JSON value parser for
 * configuration inputs (sweep spec files) and for tests that read
 * back what the writer emitted. The writer tracks the
 * object/array nesting and inserts commas so callers never emit
 * malformed separators; numbers are written round-trippably (doubles
 * with max_digits10, NaN/Inf as null, since JSON has no
 * representation for them).
 */

#ifndef PACACHE_UTIL_JSON_HH
#define PACACHE_UTIL_JSON_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace pacache
{

/** Escape a string for inclusion in a JSON document (no quotes). */
std::string jsonEscape(std::string_view s);

/** Comma/nesting-aware JSON emitter. */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os);
    ~JsonWriter();

    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Emit an object key; the next value/begin* call is its value. */
    JsonWriter &key(std::string_view k);

    JsonWriter &value(double v);
    JsonWriter &value(uint64_t v);
    JsonWriter &value(int64_t v);
    JsonWriter &value(int v) { return value(static_cast<int64_t>(v)); }
    JsonWriter &value(unsigned v)
    {
        return value(static_cast<uint64_t>(v));
    }
    JsonWriter &value(bool v);
    JsonWriter &value(std::string_view v);
    JsonWriter &value(const char *v) { return value(std::string_view(v)); }
    JsonWriter &null();

    /**
     * Splice a pre-serialized JSON value verbatim (e.g. a nested
     * document produced by another writer). The caller guarantees
     * @p v is itself valid JSON.
     */
    JsonWriter &rawValue(std::string_view v);

    /** key() + value() in one call. */
    template <typename T>
    JsonWriter &
    kv(std::string_view k, T v)
    {
        key(k);
        return value(v);
    }

    /** Close every open scope (for emergency finalization). */
    void finish();

  private:
    void separate();

    std::ostream &out;
    /** Open scopes: 'o' = object, 'a' = array. */
    std::vector<char> scopes;
    bool firstInScope = true;
    bool afterKey = false;
};

/**
 * A parsed JSON value (configuration-input sized, not a streaming
 * DOM). Numbers are kept as doubles — ample for sweep-spec knobs.
 * Parse errors throw std::runtime_error with line/column context.
 */
class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    using Array = std::vector<JsonValue>;
    /** Ordered map: deterministic iteration for reserialization. */
    using Object = std::map<std::string, JsonValue, std::less<>>;

    JsonValue() = default;

    Kind kind() const { return valueKind; }
    bool isNull() const { return valueKind == Kind::Null; }
    bool isBool() const { return valueKind == Kind::Bool; }
    bool isNumber() const { return valueKind == Kind::Number; }
    bool isString() const { return valueKind == Kind::String; }
    bool isArray() const { return valueKind == Kind::Array; }
    bool isObject() const { return valueKind == Kind::Object; }

    /** Typed accessors; fatal on kind mismatch (caller validated). */
    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;
    const Array &asArray() const;
    const Object &asObject() const;

    /** Object member lookup; null if absent or not an object. */
    const JsonValue *find(std::string_view key) const;

    /** Parse a complete JSON document (rejects trailing garbage). */
    static JsonValue parse(std::string_view text);

  private:
    friend class JsonParser;

    Kind valueKind = Kind::Null;
    bool boolValue = false;
    double numberValue = 0.0;
    std::string stringValue;
    Array arrayValue;
    Object objectValue;
};

} // namespace pacache

#endif // PACACHE_UTIL_JSON_HH
